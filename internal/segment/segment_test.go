package segment

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/vecspace"
)

// buildFixture assembles a deterministic segment payload: n random
// vectors of dimension p, one small graph per id, posting lists derived
// from the vectors.
type fixture struct {
	pl    Payload
	vecs  []*vecspace.BitVector
	blobs [][]byte
}

func buildFixture(t *testing.T, n, p int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]*vecspace.BitVector, n)
	ones := make([]int32, n)
	lists := make([][]int32, p)
	for i := range vecs {
		v := vecspace.NewBitVector(p)
		for r := 0; r < p; r++ {
			if rng.Intn(3) == 0 {
				v.Set(r)
				lists[r] = append(lists[r], int32(i))
			}
		}
		vecs[i] = v
		ones[i] = int32(v.Ones())
	}
	dead := make([]bool, n)
	for i := range dead {
		dead[i] = rng.Intn(7) == 0
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
			Graph: func(i int) ([]byte, error) { return blobs[i], nil },
			Ones:  ones,
			List:  func(r int) []int32 { return lists[r] },
		},
		vecs:  vecs,
		blobs: blobs,
	}
}

func writeFixture(t *testing.T, fx *fixture) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.gdx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, fx.pl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
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
		t.Fatalf("zone map not adopted: %v", blk.Zones())
	}
	// Adopted zone metadata must agree with a fresh derivation.
	fresh := fx.pl.Block.Zones()
	for zi := 0; zi < fresh.Zones(); zi++ {
		if blk.Zones().MinOnes(zi) != fresh.MinOnes(zi) || blk.Zones().MaxOnes(zi) != fresh.MaxOnes(zi) {
			t.Fatalf("zone %d min/max differ", zi)
		}
		got, want := blk.Zones().Summary(zi), fresh.Summary(zi)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("zone %d summary word %d differs", zi, w)
			}
		}
	}
	dead, count := r.Dead()
	wantCount := 0
	for i, d := range fx.pl.Dead {
		if dead[i] != d {
			t.Fatalf("dead[%d] = %v", i, dead[i])
		}
		if d {
			wantCount++
		}
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
	for d := 0; d < p; d++ {
		got, want := post.List(d), fx.pl.List(d)
		if len(got) != len(want) {
			t.Fatalf("dim %d: %d postings want %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dim %d posting %d: %d want %d", d, i, got[i], want[i])
			}
		}
	}
	if err := r.VerifyBody(); err != nil {
		t.Fatal(err)
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

// TestSegmentTornTrailer proves open-time integrity: truncation, trailer
// corruption and an unsupported tile width are all refused at open.
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
		want   string // substring the error must carry; "" = any error
	}{
		{"truncated-mid-trailer", func(b []byte) []byte { return b[:len(b)-20] }, ""},
		{"truncated-to-magic", func(b []byte) []byte { return b[:8] }, ""},
		{"empty", func(b []byte) []byte { return nil }, ""},
		{"trailer-bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-40] ^= 0x10
			return c
		}, ""},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}, ""},
		{"bad-trailer-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, ""},
		{"tile-width-8", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			tr := c[len(c)-trailerSize:]
			binary.LittleEndian.PutUint64(tr[12*8:], 8)
			binary.LittleEndian.PutUint32(tr[trailerSize-12:], crc32.Checksum(tr[:trailerSize-12], crcTable))
			return c
		}, "unsupported tile width 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mangled := filepath.Join(t.TempDir(), "torn.gdx")
			if err := os.WriteFile(mangled, tc.mangle(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mmap := range []bool{false, true} {
				if _, err := Open(mangled, Options{Map: mmap}); err == nil {
					t.Fatalf("map=%v: open of torn segment succeeded", mmap)
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("map=%v: error %q does not say %q", mmap, err, tc.want)
				}
			}
		})
	}
}

// TestSegmentBodyCorruption: a heap open checksums the body and rejects
// a flipped bit; a mapped open (by design) does not read the body.
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
	if _, err := Open(path, Options{Map: false}); err == nil {
		t.Fatal("heap open accepted corrupt body")
	}
	r, err := Open(path, Options{Map: true})
	if err != nil && CanMap() {
		t.Fatalf("mapped open should defer body validation: %v", err)
	}
	if r != nil {
		if err := r.VerifyBody(); err == nil {
			t.Fatal("VerifyBody missed the flipped bit")
		}
		r.Close()
	}
}

// TestSegmentPostingAppendCopies: posting lists aliased out of a mapped
// segment are capacity-clipped, so extending the index copies instead of
// scribbling on the file bytes.
func TestSegmentPostingAppendCopies(t *testing.T) {
	fx := buildFixture(t, 64, 32, 3)
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
	post, err := r.Postings()
	if err != nil {
		t.Fatal(err)
	}
	v := vecspace.NewBitVector(32)
	for d := 0; d < 32; d++ {
		v.Set(d)
	}
	if got := post.Append([]*vecspace.BitVector{v}); got.N() != 65 {
		t.Fatalf("appended index has N=%d", got.N())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("append wrote through to the segment file")
	}
}
