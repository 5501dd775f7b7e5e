package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// equalGraphs compares two graphs structurally: vertex count, labels in
// id order, and the normalized sorted edge lists.
func equalGraphs(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.VertexLabel(v) != b.VertexLabel(v) {
			return false
		}
	}
	return reflect.DeepEqual(a.Edges(), b.Edges())
}

func sampleGraphs() []*Graph {
	empty := &Graph{}
	single := &Graph{}
	single.AddVertex(7)

	negLabels := &Graph{}
	negLabels.AddVertex(-1)
	negLabels.AddVertex(math.MinInt32)
	negLabels.AddVertex(math.MaxInt32)
	negLabels.MustAddEdge(0, 1, -42)
	negLabels.MustAddEdge(1, 2, 0)

	triangle := New(3)
	triangle.MustAddEdge(0, 1, 1)
	triangle.MustAddEdge(1, 2, 2)
	triangle.MustAddEdge(0, 2, 3)

	return []*Graph{empty, single, negLabels, triangle}
}

func TestBinaryRoundTrip(t *testing.T) {
	for i, g := range sampleGraphs() {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteBinary(w, g); err != nil {
			t.Fatalf("graph %d: WriteBinary: %v", i, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("graph %d: ReadBinary: %v", i, err)
		}
		if !equalGraphs(g, got) {
			t.Errorf("graph %d: round trip changed the graph:\nin:\n%s\nout:\n%s", i, g, got)
		}
	}
}

func TestBinaryCanonical(t *testing.T) {
	// encode → decode → encode must be byte-identical (Edges() sorts).
	for i, g := range sampleGraphs() {
		var a bytes.Buffer
		w := bufio.NewWriter(&a)
		if err := WriteBinary(w, g); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		g2, err := ReadBinary(bufio.NewReader(bytes.NewReader(a.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		w = bufio.NewWriter(&b)
		if err := WriteBinary(w, g2); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("graph %d: re-encoding is not canonical", i)
		}
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		g := New(2)
		g.MustAddEdge(0, 1, 5)
		if err := WriteBinary(w, g); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty input":     {},
		"truncated":       valid[:len(valid)-1],
		"huge count":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"edge to missing": {1, 0, 1, 0, 2, 0}, // 1 vertex, edge 0-1 out of range
		"self loop":       {2, 0, 0, 1, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := ReadBinary(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("%s: ReadBinary accepted corrupt input", name)
		}
	}
}

func TestBinaryTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	g := New(3)
	g.MustAddEdge(0, 2, 9)
	if err := WriteBinary(w, g); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	data := buf.Bytes()
	// Every strict prefix must fail — and never with a bare io.EOF, which
	// callers of the persistence layer treat as clean end-of-stream.
	for cut := 1; cut < len(data); cut++ {
		_, err := ReadBinary(bufio.NewReader(bytes.NewReader(data[:cut])))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(data))
		}
		if err == io.EOF {
			t.Fatalf("prefix of %d/%d bytes returned bare io.EOF", cut, len(data))
		}
	}
}

// readBinaryReference is the decoder ReadBinary replaced: it builds the
// graph with AddVertex and AddEdge in stream order. FuzzReadBinary holds
// ReadBinary to it.
func readBinaryReference(r ByteReader) (*Graph, error) {
	n, err := readCount(r, "vertex count")
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	for v := 0; v < n; v++ {
		l, err := readLabel(r)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d: %w", v, err)
		}
		g.AddVertex(l)
	}
	m, err := readCount(r, "edge count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		u, err := readCount(r, "edge endpoint")
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		v, err := readCount(r, "edge endpoint")
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		l, err := readLabel(r)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if err := g.AddEdge(u, v, l); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// encodeRaw writes a graph stream by hand: labels, then edges exactly as
// given, in any order and with any repeats.
func encodeRaw(labels []int64, edges [][3]int64) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(labels)))
	for _, l := range labels {
		b = binary.AppendVarint(b, l)
	}
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e[0]))
		b = binary.AppendUvarint(b, uint64(e[1]))
		b = binary.AppendVarint(b, e[2])
	}
	return b
}

// FuzzReadBinary: ReadBinary, and a Decoder reused across inputs, accept
// what the AddVertex/AddEdge loop accepts from an edge stream in strictly
// ascending normalized order — what WriteBinary writes — with the same
// labels, the same Edges() and the same Neighbors(v) order for every v,
// because budgeted MCS and VF2 visit adjacency in that order. Any other
// input they refuse, with the loop's error or as an edge out of order.
func FuzzReadBinary(f *testing.F) {
	canonical := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, g := range sampleGraphs() {
		f.Add(canonical(g))
	}
	f.Add(canonical(pathGraph(50)))
	labels := []int64{1, 2, 3, 4}
	f.Add(encodeRaw(labels, [][3]int64{{2, 3, 1}, {0, 1, 5}, {1, 2, 7}}))     // non-canonical order
	f.Add(encodeRaw(labels, [][3]int64{{1, 0, 1}, {3, 2, 2}, {2, 1, 3}}))     // reversed endpoints
	f.Add(encodeRaw(labels, [][3]int64{{0, 1, 1}, {2, 3, 1}, {1, 0, 9}}))     // duplicate edge
	f.Add(encodeRaw(labels, [][3]int64{{0, 1, 1}, {0, 1, 2}}))                // duplicate, ascending labels
	f.Add(encodeRaw(labels, [][3]int64{{0, 1, 1}, {2, 2, 1}}))                // self-loop
	f.Add(encodeRaw(labels, [][3]int64{{2, 3, 1}, {0, 1, 1}, {0, 4, 1}}))     // out-of-range endpoint
	f.Add(encodeRaw(labels, [][3]int64{{0, 1, 1}, {1, 2, 1}})[:9])            // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})       // oversized count
	f.Add(append(binary.AppendUvarint(nil, 2), 0, 0, 0x80, 0x80, 0x80, 0x40)) // oversized edge count
	var reused Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		checkErr := reused.Check(bytes.NewReader(data))
		if fmt.Sprint(checkErr) != fmt.Sprint(err) {
			t.Fatalf("Check = %v, ReadBinary = %v", checkErr, err)
		}
		matchReference(t, data, got, err)
	})
}

// matchReference holds one ReadBinary result to readBinaryReference on
// the same input: the graph the reference builds from an ascending edge
// stream, and otherwise a refusal, with the reference's error unless the
// refusal is of an edge out of order.
func matchReference(t *testing.T, data []byte, got *Graph, err error) {
	t.Helper()
	want, wantErr := readBinaryReference(bytes.NewReader(data))
	if err != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) && !strings.HasSuffix(err.Error(), "out of order") {
			t.Fatalf("ReadBinary = %v, reference = %v", err, wantErr)
		}
		return
	}
	if wantErr != nil {
		t.Fatalf("ReadBinary accepted what the reference refuses: %v", wantErr)
	}
	// want.edges is still in stream order: Edges() has not sorted it.
	for i := 1; i < len(want.edges); i++ {
		if p, e := want.edges[i-1], want.edges[i]; p.U > e.U || p.U == e.U && p.V > e.V {
			t.Fatalf("ReadBinary accepted edge %d out of order", i)
		}
	}
	if got.N() != want.N() {
		t.Fatalf("%d vertices, reference %d", got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		if got.VertexLabel(v) != want.VertexLabel(v) {
			t.Fatalf("vertex %d: label %d, reference %d", v, got.VertexLabel(v), want.VertexLabel(v))
		}
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("vertex %d: neighbors %v, reference %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges %v, reference %v", got.Edges(), want.Edges())
	}
}

// TestDecoderReuse: a Decoder checking graphs of shrinking and growing
// size, whose adjacency windows from earlier graphs are left behind in
// its scratch, answers each input as a fresh ReadBinary does.
func TestDecoderReuse(t *testing.T) {
	labels := func(n int) []int64 { return make([]int64, n) }
	inputs := [][]byte{
		encodeRaw(labels(5), [][3]int64{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}}),
		encodeRaw(labels(3), [][3]int64{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}}),
		encodeRaw(labels(5), [][3]int64{{0, 2, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {0, 4, 5}}),
		encodeRaw(labels(5), [][3]int64{{1, 2, 0}, {2, 3, 0}, {3, 2, 0}}),
		encodeRaw(labels(5), [][3]int64{{2, 3, 0}, {1, 2, 0}}),
		encodeRaw(labels(2), [][3]int64{{0, 1, 0}}),
	}
	var d Decoder
	for round := 0; round < 2; round++ {
		for i, data := range inputs {
			got, err := ReadBinary(bytes.NewReader(data))
			if checkErr := d.Check(bytes.NewReader(data)); fmt.Sprint(checkErr) != fmt.Sprint(err) {
				t.Fatalf("input %d: Check = %v, ReadBinary = %v", i, checkErr, err)
			}
			matchReference(t, data, got, err)
		}
	}
	for i, want := range []string{"<nil>", "<nil>", "graph: edge 4 out of order", "graph: duplicate edge {3,2}", "graph: edge 1 out of order", "<nil>"} {
		if err := d.Check(bytes.NewReader(inputs[i])); fmt.Sprint(err) != want {
			t.Errorf("input %d: Check = %v, want %q", i, err, want)
		}
	}
}

// pathGraph is a path over n vertices with varied labels.
func pathGraph(n int) *Graph {
	g := &Graph{}
	for v := 0; v < n; v++ {
		g.AddVertex(Label(v % 7))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, Label(v%3))
	}
	return g
}

// TestReadBinaryAllocsBounded: a decoded graph costs the same few
// allocations (the Graph, labels, edges, adjacency headers and one
// half-edge backing) whatever its size.
func TestReadBinaryAllocsBounded(t *testing.T) {
	const ceiling = 5
	for _, m := range []int{5, 50, 500} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, pathGraph(m+1)); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		br := bytes.NewReader(data)
		allocs := testing.AllocsPerRun(100, func() {
			br.Reset(data)
			if _, err := ReadBinary(br); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%d edges: %.1f allocations per graph, ceiling %d", m, allocs, ceiling)
		}
	}
}
