package segment

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/vecspace"
)

// buildFixture assembles a deterministic segment payload: n random
// vectors of dimension p, one small graph per id, and an id table of
// distinct ids in no order, the largest 2^32-1.
type fixture struct {
	pl    Payload
	vecs  []*vecspace.BitVector
	blobs [][]byte
}

func buildFixture(t testing.TB, n, p int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]*vecspace.BitVector, n)
	for i := range vecs {
		v := vecspace.NewBitVector(p)
		for r := 0; r < p; r++ {
			if rng.Intn(3) == 0 {
				v.Set(r)
			}
		}
		vecs[i] = v
	}
	dead := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if rng.Intn(7) == 0 {
			dead[i/64] |= 1 << (i % 64)
		}
	}
	blobs := make([][]byte, n)
	graphs := make([]*graph.Graph, n)
	for i := range blobs {
		g := graph.New(2 + rng.Intn(3))
		for v := 1; v < g.N(); v++ {
			g.MustAddEdge(v-1, v, graph.Label(rng.Intn(4)))
		}
		graphs[i] = g
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}
	ids := make([]int, n)
	for i, j := range rng.Perm(n) {
		ids[i] = 1<<32 - 1 - 3*j
	}
	features := make([]*graph.Graph, p)
	weights := make([]float64, p)
	for r := range features {
		f := graph.New(2)
		f.MustAddEdge(0, 1, graph.Label(r%5))
		features[r] = f
		weights[r] = float64(r) * 0.5
	}
	return &fixture{
		pl: Payload{
			Meta:  Meta{Metric: 2, MCSBudget: 12345, Weights: weights, Features: features, BaseN: n / 2},
			Block: vecspace.Pack(vecs, p),
			Dead:  dead,
			IDs:   ids,
			Graph: func(i int) ([]byte, error) { return blobs[i], nil },
		},
		vecs:  vecs,
		blobs: blobs,
	}
}

// encodeFixture returns fx's payload as segment bytes.
func encodeFixture(t testing.TB, fx *fixture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, fx.pl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFixture(t *testing.T, fx *fixture) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.gdx")
	if err := os.WriteFile(path, encodeFixture(t, fx), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// restamp recomputes data's body and trailer checksums in place, so a
// test can hand the reader a deliberately changed body that the checksum
// pass accepts.
func restamp(data []byte) {
	tr := data[len(data)-trailerSize:]
	binary.LittleEndian.PutUint32(tr[trailerSize-16:], crc32.Checksum(data[:len(data)-trailerSize], crcTable))
	binary.LittleEndian.PutUint32(tr[trailerSize-12:], crc32.Checksum(tr[:trailerSize-12], crcTable))
}

func checkReader(t *testing.T, fx *fixture, r *Reader) {
	t.Helper()
	n, p := len(fx.vecs), fx.pl.Block.P()
	if r.N() != n || r.P() != p {
		t.Fatalf("N,P = %d,%d want %d,%d", r.N(), r.P(), n, p)
	}
	m := r.Meta()
	if m.Metric != fx.pl.Meta.Metric || m.MCSBudget != fx.pl.Meta.MCSBudget || m.BaseN != fx.pl.Meta.BaseN {
		t.Fatalf("meta scalars: %+v", m)
	}
	if len(m.Weights) != p || len(m.Features) != p {
		t.Fatalf("meta arrays: %d weights %d features", len(m.Weights), len(m.Features))
	}
	for i, w := range m.Weights {
		if w != fx.pl.Meta.Weights[i] {
			t.Fatalf("weight %d: %v", i, w)
		}
		if m.Features[i].Signature() != fx.pl.Meta.Features[i].Signature() {
			t.Fatalf("feature %d signature mismatch", i)
		}
	}
	blk, err := r.Block()
	if err != nil {
		t.Fatal(err)
	}
	if blk.N() != n || blk.P() != p || blk.Width() != fx.pl.Block.Width() {
		t.Fatalf("block shape %d/%d/%d", blk.N(), blk.P(), blk.Width())
	}
	for i, v := range fx.vecs {
		if blk.Vector(i).HammingDistance(v) != 0 {
			t.Fatalf("vector %d differs after round trip", i)
		}
	}
	if blk.Zones() == nil || blk.Zones().Zones() != (n+vecspace.ZoneSpan-1)/vecspace.ZoneSpan {
		t.Fatalf("zone map not derived: %v", blk.Zones())
	}
	dead, count := r.Dead()
	wantCount := 0
	for i := 0; i < n; i++ {
		d := fx.pl.Dead[i/64]&(1<<(i%64)) != 0
		if got := dead[i/64]&(1<<(i%64)) != 0; got != d {
			t.Fatalf("dead[%d] = %v", i, got)
		}
		// The dead section's bit order: id i at byte i/8, bit i%8.
		if got := r.data[r.deadOff+int64(i/8)]&(1<<(i%8)) != 0; got != d {
			t.Fatalf("dead section bit %d = %v", i, got)
		}
		if d {
			wantCount++
		}
	}
	if len(dead) != len(fx.pl.Dead) {
		t.Fatalf("dead bitset has %d words, want %d", len(dead), len(fx.pl.Dead))
	}
	if count != wantCount {
		t.Fatalf("dead count %d want %d", count, wantCount)
	}
	for i := range fx.vecs {
		b, err := r.GraphBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, fx.blobs[i]) {
			t.Fatalf("graph blob %d differs", i)
		}
		g, err := r.GraphAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() == 0 {
			t.Fatalf("graph %d empty", i)
		}
	}
	post, err := r.Postings()
	if err != nil {
		t.Fatal(err)
	}
	if post.N() != n || post.P() != p {
		t.Fatalf("postings shape %d/%d", post.N(), post.P())
	}
	if ids := r.IDs(); !slices.Equal(ids, fx.pl.IDs) {
		t.Fatalf("ids %v, want %v", ids, fx.pl.IDs)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		mmap bool
	}{
		{"heap", 700, false},
		{"mmap", 700, true},
		{"empty-heap", 0, false},
		{"empty-mmap", 0, true},
		{"partial-zone", vecspace.ZoneSpan + 17, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.n, 130, int64(tc.n))
			path := writeFixture(t, fx)
			r, err := Open(path, Options{Map: tc.mmap})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if tc.mmap && CanMap() && !r.Mapped() {
				t.Fatal("expected a mapped open")
			}
			if !tc.mmap && r.Mapped() {
				t.Fatal("heap open reported mapped")
			}
			checkReader(t, fx, r)
		})
	}
}

// TestSegmentTornTrailer proves open-time integrity: truncation and
// trailer corruption are refused at open.
func TestSegmentTornTrailer(t *testing.T) {
	fx := buildFixture(t, 200, 64, 7)
	path := writeFixture(t, fx)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated-mid-trailer", func(b []byte) []byte { return b[:len(b)-20] }},
		{"truncated-to-magic", func(b []byte) []byte { return b[:8] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"trailer-bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-40] ^= 0x10
			return c
		}},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}},
		{"bad-trailer-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mangled := filepath.Join(t.TempDir(), "torn.gdx")
			if err := os.WriteFile(mangled, tc.mangle(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mmap := range []bool{false, true} {
				if _, err := Open(mangled, Options{Map: mmap}); err == nil {
					t.Fatalf("map=%v: open of torn segment succeeded", mmap)
				}
			}
		})
	}
}

// TestSegmentVerifiedOpenRejectsEveryFlipAndCut flips every byte and cuts at
// every length of a valid segment, its id table included: the trailer and
// body checksums together leave no position NewReader accepts.
func TestSegmentVerifiedOpenRejectsEveryFlipAndCut(t *testing.T) {
	valid := encodeFixture(t, buildFixture(t, 40, 70, 5))
	r, err := NewReader(valid, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every section is flipped, the ids section too.
	if r.idsOff < int64(len(Magic)) || r.idsOff+4*int64(r.N()) != r.trailerOff {
		t.Fatalf("ids section at %d for %d ids, trailer at %d", r.idsOff, r.N(), r.trailerOff)
	}
	corrupt := make([]byte, len(valid))
	for pos := range valid {
		copy(corrupt, valid)
		corrupt[pos] ^= 0x40
		if _, err := NewReader(corrupt, false, nil); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", pos, len(valid))
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := NewReader(valid[:cut], false, nil); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
}

// TestSegmentNamesLegacyFormats: files of the retired index generations
// are intact, so the open error names the format and the upgrade path
// instead of calling them corrupt; input that is no index at all is
// refused without claiming a format.
func TestSegmentNamesLegacyFormats(t *testing.T) {
	for name, tc := range map[string]struct{ data, format string }{
		"v2":         {"GDIMIDX2\x00\x10payload", "v2 binary"},
		"v3":         {"GDIMIDX3\x00\x10payload", "v3 binary"},
		"v3 magic":   {"GDIMIDX3", "v3 binary"},
		"v4":         {"GDIMIDX4\x00\x10payload", "v4 binary"},
		"v4 magic":   {"GDIMIDX4", "v4 binary"},
		"v5":         {"GDIMIDX5\x00\x10payload", "v5 binary"},
		"v5 magic":   {"GDIMIDX5", "v5 binary"},
		"v1":         {`{"version":1,"metric":0,"features":[],"db":[]}`, "v1 JSON"},
		"v1 indent":  {"\n {\n \"version\": 1\n}", "v1 JSON"},
		"other json": {`{"version": 2}`, "v1 JSON"},
		"empty":      {"", ""},
		"text":       {"hello world", ""},
		"bad magic":  {"GDIMIDX9everything-else", ""},
	} {
		_, err := NewReader([]byte(tc.data), false, nil)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		msg := err.Error()
		if tc.format == "" {
			if strings.Contains(msg, "legacy") {
				t.Errorf("%s: non-index input reported as a legacy format: %q", name, msg)
			}
			continue
		}
		for _, want := range []string{"legacy " + tc.format, "previous release", "checkpoint"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not mention %q", name, msg, want)
			}
		}
		if strings.Contains(msg, "corrupt") {
			t.Errorf("%s: legacy file reported as corrupt: %q", name, msg)
		}
	}
}

// TestSegmentBodyCorruption: a flipped bit in the body fails the open by
// its checksum, whether the file is mapped or read into memory.
func TestSegmentBodyCorruption(t *testing.T) {
	fx := buildFixture(t, 200, 64, 11)
	path := writeFixture(t, fx)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)+100] ^= 0x01 // somewhere in the body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		if _, err := Open(path, Options{Map: mmap}); err == nil || !strings.Contains(err.Error(), "body checksum") {
			t.Fatalf("map=%v: open of a corrupt body = %v, want a body checksum error", mmap, err)
		}
	}
}

// TestSegmentDeadDropsBitsPastN: a dead section whose last byte carries
// a bit past n under valid checksums — which no writer of this package
// produces — still opens, and Dead drops that bit, so the id an Add
// appends there starts live.
func TestSegmentDeadDropsBitsPastN(t *testing.T) {
	const n = 203 // the last dead byte holds ids 200..202 and 5 spare bits
	fx := buildFixture(t, n, 64, 13)
	data, err := os.ReadFile(writeFixture(t, fx))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCount := r.Dead()
	data[r.deadOff+n/8] |= 1 << 7
	restamp(data)
	if r, err = NewReader(data, true, nil); err != nil {
		t.Fatal(err)
	}
	got, count := r.Dead()
	if count != wantCount || !slices.Equal(got, want) {
		t.Fatalf("stray bit past n: dead %x (%d ids), want %x (%d ids)", got, count, want, wantCount)
	}
}

// TestSegmentBlockAppendCopies: tiles aliased out of a mapped segment are
// capacity-clipped, so extending the block copies instead of scribbling
// on the file bytes.
func TestSegmentBlockAppendCopies(t *testing.T) {
	fx := buildFixture(t, 70, 32, 3) // a partial last tile
	path := writeFixture(t, fx)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{Map: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	blk, _ := r.Block()
	v := vecspace.NewBitVector(32)
	for d := 0; d < 32; d++ {
		v.Set(d)
	}
	if got := blk.Append([]*vecspace.BitVector{v}); got.N() != 71 || got.Vector(70).HammingDistance(v) != 0 {
		t.Fatalf("appended block has N=%d", got.N())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("append wrote through to the segment file")
	}
}
