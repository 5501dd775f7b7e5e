package graphdim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/segment"
)

// snapSeg returns the mapped segment source behind a single collection
// shard's current snapshot, nil when the shard is served from the heap.
func snapSeg(c *Collection, shard int) (*snapshot, *segSource) {
	s := c.shards[shard].snap.Load()
	return s, s.seg
}

// openSegmentIndex opens a segment file by path as an index served under
// the segment's own id table, or under globals when they are given.
func openSegmentIndex(path string, globals []int) (*Index, error) {
	r, err := segment.Open(path, segment.Options{Map: true})
	if err != nil {
		return nil, err
	}
	ix, err := indexFromSegment(r)
	if err == nil && globals != nil {
		ix.snap.Load().setGlobals(globals)
	}
	return ix, err
}

// checkpointedShard builds a 1-shard collection of n graphs in a fresh
// store directory, checkpoints it and closes the store. It returns the
// database, the directory and the shard file's path and bytes.
func checkpointedShard(t *testing.T, n int) (db []*Graph, dir, path string, data []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, n)
	dir = t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFromIndex("c", idx, CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	shards, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("shard files: %v %v", shards, err)
	}
	if data, err = os.ReadFile(shards[0]); err != nil {
		t.Fatal(err)
	}
	return db, dir, shards[0], data
}

// segmentTrailerSize is the v6 segment trailer's length; its last 16
// bytes are the body crc, the trailer crc and the trailer magic.
const segmentTrailerSize = 88

// restampSegment recomputes a segment's body and trailer checksums in
// place, so a deliberately changed body passes the open's checksum pass.
func restampSegment(data []byte) {
	tr := data[len(data)-segmentTrailerSize:]
	binary.LittleEndian.PutUint32(tr[segmentTrailerSize-16:], crc32.ChecksumIEEE(data[:len(data)-segmentTrailerSize]))
	binary.LittleEndian.PutUint32(tr[segmentTrailerSize-12:], crc32.ChecksumIEEE(tr[:segmentTrailerSize-12]))
}

// TestOpenStoreRejectsTornSegment: a shard segment torn mid-trailer —
// the shape a crashed checkpoint or truncated copy leaves behind — must
// fail the open with an error, not serve garbage.
func TestOpenStoreRejectsTornSegment(t *testing.T) {
	_, dir, path, pristine := checkpointedShard(t, 20)
	size := int64(len(pristine))

	corrupt := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if got, err := OpenStore(dir, StoreOptions{}); err == nil {
			got.Close()
			t.Fatalf("%s: OpenStore accepted a corrupt segment", name)
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt("torn mid-trailer", func() error {
		return os.Truncate(path, size-40)
	})
	corrupt("truncated to half", func() error {
		return os.Truncate(path, size/2)
	})
	corrupt("trailer bit flip", func() error {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt([]byte{pristine[size-20] ^ 0x40}, size-20)
		return err
	})

	// And the pristine file must still open — the corruptions above, not
	// the restore, were what failed.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("pristine reopen: %v", err)
	}
	re.Close()
}

// TestReadIndexSegmentRoundTrip: an index written as a segment —
// tombstones and post-Add ids included — opens to an index served from
// that segment that answers exactly like its source.
func TestReadIndexSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 30)
	if _, err := idx.Add(dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 8, Labels: 5, Seed: rng.Int63()})...); err != nil {
		t.Fatal(err)
	}
	if err := idx.removeGlobal([]int{1, 7}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "index.gdx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.writeSegment(f, idx.snap.Load()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openSegmentIndex(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, is := re.snap.Load(), idx.snap.Load()
	if len(rs.db) != len(is.db) || rs.live() != is.live() {
		t.Fatalf("reopened %d total/%d live, want %d/%d", len(rs.db), rs.live(), len(is.db), is.live())
	}
	if rs.seg == nil {
		t.Fatal("the reopened index is not served from its segment")
	}
	if !rs.isDead(1) || !rs.isDead(7) || rs.isDead(2) {
		t.Fatal("tombstones not preserved")
	}
	ctx := context.Background()
	queries := append([]*Graph{db[3]}, dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	for qi, q := range queries {
		for _, opt := range []SearchOptions{
			{K: 6},
			{K: 4, Engine: EngineVerified, VerifyFactor: 2},
			{K: 3, Engine: EngineExact},
		} {
			want, err := idx.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := re.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("query %d %s: reopened ranking diverges:\ngot:  %v\nwant: %v", qi, fmt.Sprint(opt.Engine), got.Results, want.Results)
			}
		}
	}
}

// TestOpenStoreRefusesFlippedTileBit: one bit flipped in a checkpointed
// shard's tile section — the vectors a mapped scan would serve in place —
// fails OpenStore with an error naming the shard file and its body
// checksum. The store serves no query, and nothing panics.
func TestOpenStoreRefusesFlippedTileBit(t *testing.T) {
	_, dir, path, data := checkpointedShard(t, 30)
	tilesOff := binary.LittleEndian.Uint64(data[len(data)-segmentTrailerSize:]) // the trailer's first offset
	data[tilesOff+3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{})
	if err == nil {
		s.Close()
		t.Fatal("OpenStore served a shard whose tile section has a flipped bit")
	}
	if s != nil {
		t.Fatalf("a failed OpenStore returned a store: %v", err)
	}
	for _, want := range []string{filepath.Base(path), "body checksum"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("OpenStore error %q does not name %q", err, want)
		}
	}
}

// TestStoreOptionsRefuseOtherMemoryModes: MemoryAuto is the one memory
// mode, so a store opened or created with any other value is refused by
// the option's name rather than served some other way.
func TestStoreOptionsRefuseOtherMemoryModes(t *testing.T) {
	_, dir, _, _ := checkpointedShard(t, 12)
	for _, mode := range []MemoryMode{1, -1} {
		opt := StoreOptions{Memory: mode}
		if s, err := OpenStore(dir, opt); err == nil || !strings.Contains(err.Error(), "StoreOptions.Memory") {
			if s != nil {
				s.Close()
			}
			t.Fatalf("OpenStore(Memory %d) = %v, want a refusal naming StoreOptions.Memory", mode, err)
		}
		if s, err := CreateStore(filepath.Join(t.TempDir(), "new"), opt); err == nil || !strings.Contains(err.Error(), "StoreOptions.Memory") {
			if s != nil {
				s.Close()
			}
			t.Fatalf("CreateStore(Memory %d) = %v, want a refusal naming StoreOptions.Memory", mode, err)
		}
	}
}

// TestCorruptMappedPayloadFailsTheQuery: a graph payload that does not
// decode is refused at open when its bytes fail the body checksum. One
// whose checksums were stamped over the corrupt bytes — what a faulty
// writer would leave — opens, and is first seen by whichever query
// resolves that graph. Every query path that does — a Predicate search,
// a search under a label filter (its label-index build reads every
// graph), a group_by scan, and a group_by over search results — must
// return an error naming the graph; none may panic, and queries that
// resolve no graph keep working.
func TestCorruptMappedPayloadFailsTheQuery(t *testing.T) {
	db, dir, path, data := checkpointedShard(t, 30)

	// Overwrite the leading vertex-count varint of graph `victim` with a
	// count no graph may have, so graph.ReadBinary refuses the payload.
	// The shard's lanes are clustered: the segment's id table says which
	// lane holds the victim.
	const victim = 7
	r, err := segment.NewReader(data, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := r.IDs()
	lane := slices.Index(ids, victim)
	blob, err := r.GraphBytes(lane)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob, []byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // blob aliases data
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), "body checksum") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("OpenStore of a corrupt payload under its old checksum = %v, want a body checksum error", err)
	}
	restampSegment(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("an open decodes no payload, so it must succeed once the checksums match: %v", err)
	}
	defer s.Close()
	c, _ := s.Collection("c")
	ctx := context.Background()
	q := db[0]
	lab := int(db[1].VertexLabel(0))
	labelFilter := &pipeline.Filter{VertexLabels: []pipeline.LabelCount{{Label: lab}}}

	if _, err := c.Search(ctx, q, SearchOptions{K: 5}); err != nil {
		t.Fatalf("a mapped search resolves no graph and must still work: %v", err)
	}
	search := &pipeline.Search{K: len(db), G: q}
	cases := map[string]func() error{
		"predicate search": func() error {
			// The flat scan asks the predicate only about ids that can
			// enter its heap; with K = every graph that is every live id.
			_, err := c.Search(ctx, q, SearchOptions{K: len(db), Predicate: func(int, *Graph) bool { return true }})
			return err
		},
		"filtered search": func() error {
			_, err := c.Search(ctx, q, SearchOptions{K: 5, Filters: []*pipeline.Filter{labelFilter}})
			return err
		},
		"residual-filtered search": func() error {
			// A filter that names no label builds no label index, so only
			// its residual resolves graphs — like the predicate above, for
			// every live id once K is every graph.
			_, err := c.Search(ctx, q, SearchOptions{K: len(db), Filters: []*pipeline.Filter{{MinVertices: 1}}})
			return err
		},
		"group_by scan": func() error {
			_, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
				{GroupBy: &pipeline.GroupBy{Key: "vertex_label"}},
			}})
			return err
		},
		"group_by over search": func() error {
			_, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
				{Search: search}, {GroupBy: &pipeline.GroupBy{Key: "edge_label"}},
			}})
			return err
		},
	}
	want := fmt.Sprintf("graph %d: segment: corrupt graph %d", victim, lane)
	for name, run := range cases {
		err := run()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, want)
		}
	}
	// The accessors cannot carry an error: they report the corrupt graph
	// as unresolvable instead of panicking, and the others still resolve.
	if g, ok := c.Graph(victim); g != nil || ok {
		t.Errorf("Collection.Graph(%d) = %v, %v; want nil, false", victim, g, ok)
	}
	if g, ok := c.Graph(victim + 1); g == nil || !ok {
		t.Errorf("Collection.Graph(%d) = %v, %v; an intact graph must resolve", victim+1, g, ok)
	}
}
