package graphdim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/posting"
	"repro/internal/segment"
	"repro/internal/vecspace"
)

// TestClusteredTiesRankLikeUnclustered: a split and a Compact store a
// shard's lanes clustered rather than in global-id order, and where most
// vectors tie, the top-k is decided by global id alone. A many-ties
// collection (4 dimensions, 1,530 small molecules, so every shard spans
// several zones) that is split, loses every seventh graph, is compacted
// and then grows again must rank exactly like a stand-alone Index holding
// the same graphs in id order — mapped, verified and exact, ids and
// distances — on one shard and on two (where the reference searches each
// shard's graphs apart and merges).
func TestClusteredTiesRankLikeUnclustered(t *testing.T) {
	ctx := context.Background()
	sample := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 4, MaxVertices: 8, Seed: 3})
	rest := dataset.Chemical(dataset.ChemConfig{N: 1500, MinVertices: 4, MaxVertices: 8, Seed: 4})
	build := func(adds []*Graph) *Index {
		t.Helper()
		ix, err := Build(sample, Options{Dimensions: 4, Tau: 0.2, MaxPatternEdges: 3, MCSBudget: 200})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Add(adds...); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ref := build(rest) // ids 0..1529 in id order, never clustered
	removed := make(map[int]bool)
	var gone []int
	for id := 0; id < len(sample)+1400; id += 7 {
		gone = append(gone, id)
		removed[id] = true
	}
	queries := []*Graph{sample[0], rest[10], rest[1450], sample[7], rest[3], rest[500], rest[900], rest[1200], sample[20]}
	// Large Ks put the cut inside ties between different vectors, whose
	// lanes the clustering stores apart, with interleaved global ids.
	opts := []SearchOptions{
		{K: 10},
		{K: 120},
		{K: 400},
		{K: 250},
		{K: 60},
		{K: 10, Engine: EngineVerified, VerifyFactor: 3},
		{K: 40, Engine: EngineVerified, VerifyFactor: 8},
		{K: 10, Engine: EngineExact},
	}
	for _, shards := range []int{1, 2} {
		c, err := NewStore(StoreOptions{}).CreateFromIndex("c", build(rest[:1400]), CollectionOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Remove(gone...); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Compact(ctx); err != nil || n != shards {
			t.Fatalf("%d shards: Compact = %d, %v", shards, n, err)
		}
		if _, err := c.Add(ctx, rest[1400:]...); err != nil {
			t.Fatal(err)
		}
		for _, sh := range c.shards {
			if s := sh.snap.Load(); s.block.N() <= 2*256 {
				t.Fatalf("%d shards: a shard of %d lanes spans too few zones to test zone order", shards, s.block.N())
			}
		}
		for qi, q := range queries {
			for _, opt := range opts {
				label := fmt.Sprintf("%d shards, query %d, %v K=%d", shards, qi, opt.Engine, opt.K)
				got, err := c.Search(ctx, q, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// The reference searches each shard's share of the graphs on
				// its own and merges, since a sharded verified search
				// verifies each shard's own candidates.
				var outs []shardOut
				for i := 0; i < shards; i++ {
					ropt := opt
					ropt.Predicate = func(id int, _ *Graph) bool { return !removed[id] && placeID(id, shards) == i }
					res, err := ref.Search(ctx, q, ropt)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					outs = append(outs, shardOut{res: res})
				}
				want := mergeTopK(outs, opt.K)
				if !reflect.DeepEqual(got.Results, want) {
					t.Fatalf("%s:\n got %v\nwant %v", label, got.Results, want)
				}
				ties := 0
				for i := 1; i < len(want); i++ {
					if want[i].Distance == want[i-1].Distance {
						ties++
					}
				}
				if opt.Engine == EngineMapped && ties < len(want)/2 {
					t.Fatalf("%s: only %d adjacent ties in %v: not a tie-heavy ranking", label, ties, want)
				}
			}
		}
	}
}

// TestOpenStoreChecksIDTables: a shard's id table lists its lanes' global
// ids in lane order, which a split or Compact clusters, so an open does
// not require it sorted. It requires each id once, on the shard it places
// on: a table that repeats an id, or holds an id of another shard, is
// refused by name. The table is the segment's ids section; each bad one
// is written there under restamped checksums, so the file itself opens.
func TestOpenStoreChecksIDTables(t *testing.T) {
	s, dir := newCheckpointStore(t)
	ix, _ := equivBuild(t, rand.New(rand.NewSource(5)), 60)
	if _, err := s.CreateFromIndex("c", ix, CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	paths := make([]string, 2)
	good := make([][]byte, 2)
	tables := make([][]int, 2)
	for i := range paths {
		files, err := filepath.Glob(filepath.Join(dir, "c", fmt.Sprintf("shard-%04d-*.gdx", i)))
		if err != nil || len(files) != 1 {
			t.Fatalf("shard %d files: %v %v", i, files, err)
		}
		paths[i] = files[0]
		if good[i], err = os.ReadFile(files[0]); err != nil {
			t.Fatal(err)
		}
		r, err := segment.NewReader(good[i], false, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = r.IDs()
	}
	if slices.IsSorted(tables[0]) && slices.IsSorted(tables[1]) {
		t.Fatalf("id tables %v are in id order: the split did not cluster them", tables)
	}
	if re, err := OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatalf("a clustered id table must open: %v", err)
	} else {
		re.Close()
	}

	// idsSection returns where shard 0's ids section starts in data.
	idsSection := func(data []byte) int {
		tr := data[len(data)-segmentTrailerSize:]
		return int(binary.LittleEndian.Uint64(tr[5*8:]))
	}
	for name, c := range map[string]struct {
		lane, id int
		want     string
	}{
		"repeated id": {
			2, tables[0][0],
			fmt.Sprintf("shard 0: id %d appears twice in its id table", tables[0][0]),
		},
		"id of another shard": {
			1, tables[1][0],
			fmt.Sprintf("shard 0: id %d places on shard 1", tables[1][0]),
		},
	} {
		bad := bytes.Clone(good[0])
		binary.LittleEndian.PutUint32(bad[idsSection(bad)+4*c.lane:], uint32(c.id))
		restampSegment(bad)
		if err := os.WriteFile(paths[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(dir, StoreOptions{})
		if err == nil {
			re.Close()
			t.Fatalf("%s: OpenStore accepted the id table", name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: OpenStore error %q does not say %q", name, err, c.want)
		}
	}
}

// TestLanesByGlobalSorts: the radix sort behind a shard's inverse id
// table orders lanes exactly as a stable comparison sort by global id
// does — ids spanning one to four bytes, shuffled, and repeated ids (which
// an open refuses by finding them side by side) kept in lane order.
func TestLanesByGlobalSorts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, top := range []int{0, 1, 200, 1 << 16, 1<<24 + 5, 1<<32 - 1} {
		for _, n := range []int{0, 1, 2, 300, 2000} {
			globals := make([]int, n)
			for i := range globals {
				globals[i] = r.Intn(top + 1)
				if i > 0 && r.Intn(5) == 0 {
					globals[i] = globals[r.Intn(i)]
				}
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return globals[a] - globals[b] })
			if got := lanesByGlobal(globals); !slices.Equal(got, want) {
				t.Fatalf("top %d, n %d: lanes %v, want %v", top, n, got, want)
			}
		}
	}
}

// inClusterOrder reports whether lanes [from, n) of s are stored in
// vecspace.ClusterOrder: the stable sort leaves them where they are.
func inClusterOrder(s *snapshot, from int) bool {
	vecs := make([]*vecspace.BitVector, 0, len(s.db)-from)
	for lane := from; lane < len(s.db); lane++ {
		vecs = append(vecs, s.block.Vector(lane))
	}
	for i, j := range vecspace.ClusterOrder(vecs) {
		if i != j {
			return false
		}
	}
	return true
}

// TestCheckpointClustersAppendedLanes: a checkpoint stores the lanes Add
// appended since the last rewrite in vecspace.ClusterOrder, in the live
// shard and in its segment file, and changes nothing a reader can see: the
// tombstones, the generations, the label index's answers and every
// ranking — on a tie-heavy collection whose top-k is cut by global id,
// with label filters and with predicates over global ids — are as they
// were. A checkpoint with nothing appended since re-sorts
// nothing.
func TestCheckpointClustersAppendedLanes(t *testing.T) {
	ctx := context.Background()
	sample := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 4, MaxVertices: 8, Seed: 3})
	rest := dataset.Chemical(dataset.ChemConfig{N: 1200, MinVertices: 4, MaxVertices: 8, Seed: 4})
	ix, err := Build(sample, Options{Dimensions: 6, Tau: 0.2, MaxPatternEdges: 3, MCSBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(rest[:600]...); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	c, err := s.CreateFromIndex("c", ix, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 600; lo < len(rest); lo += 50 {
		if _, err := c.Add(ctx, rest[lo:lo+50]...); err != nil {
			t.Fatal(err)
		}
	}
	var gone []int
	for id := 5; id < len(sample)+len(rest); id += 9 {
		gone = append(gone, id)
	}
	if err := c.Remove(gone...); err != nil {
		t.Fatal(err)
	}

	queries := []*Graph{sample[0], rest[10], rest[700], rest[1100], sample[9]}
	opts := []SearchOptions{
		{K: 10}, {K: 150}, {K: 400},
		{K: 10, Engine: EngineVerified, VerifyFactor: 3},
		{K: 10, Engine: EngineExact},
		{K: 30, Filters: []*pipeline.Filter{{VertexLabels: []pipeline.LabelCount{{Label: 1, MinCount: 2}}}}},
		{K: 10, Predicate: func(id int, _ *Graph) bool { return id < 300 }},
		{K: 10, Engine: EngineExact, Predicate: func(id int, _ *Graph) bool { return id%3 == 0 }},
	}
	answers := func(label string) [][]Result {
		t.Helper()
		var out [][]Result
		for qi, q := range queries {
			for _, opt := range opts {
				res, err := c.Search(ctx, q, opt)
				if err != nil {
					t.Fatalf("%s: query %d: %v", label, qi, err)
				}
				out = append(out, res.Results)
			}
		}
		return out
	}
	want := answers("before")
	gens := c.generations()
	deads := make([]int, len(c.shards))
	for i, sh := range c.shards {
		snap := sh.snap.Load()
		deads[i] = snap.deadCount
		if snap.labels.Load() == nil {
			t.Fatalf("shard %d: the label-filtered searches built no label index", i)
		}
		if snap.sorted == len(snap.db) || inClusterOrder(snap, snap.baseN) {
			t.Fatalf("shard %d: lanes [%d,%d) are sorted before any checkpoint; the test shows nothing", i, snap.sorted, len(snap.db))
		}
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pinned := make([]*snapshot, len(c.shards))
	for i, sh := range c.shards {
		snap := sh.snap.Load()
		pinned[i] = snap
		if snap.sorted != len(snap.db) || !inClusterOrder(snap, snap.baseN) {
			t.Fatalf("shard %d: after a checkpoint the lanes past baseN %d are not in ClusterOrder", i, snap.baseN)
		}
		if snap.deadCount != deads[i] || deadBelow(snap.dead, len(snap.db)) != deads[i] {
			t.Fatalf("shard %d: %d tombstones after the checkpoint, %d before", i, snap.deadCount, deads[i])
		}
		if err := checkIDTable(snap, i, len(c.shards), int(c.nextID.Load())); err != nil {
			t.Fatal(err)
		}
		db := make([]*Graph, len(snap.db))
		for lane := range db {
			db[lane], _ = snap.graphAt(lane)
		}
		if got := snap.labels.Load(); !reflect.DeepEqual(got, posting.LabelsFromGraphs(db)) {
			t.Fatalf("shard %d: the label index does not follow the lanes it indexes", i)
		}
	}
	if got := c.generations(); !slices.Equal(got, gens) {
		t.Fatalf("the checkpoint's re-sort moved the generations %v to %v", gens, got)
	}
	if got := answers("after the checkpoint"); !reflect.DeepEqual(got, want) {
		t.Fatalf("the checkpoint's re-sort changed a ranking")
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range c.shards {
		if sh.snap.Load() != pinned[i] {
			t.Fatalf("shard %d: a checkpoint with nothing appended since the last one published a snapshot", i)
		}
	}

	s.Close()
	if s, err = OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	c, _ = s.Collection("c")
	for i, sh := range c.shards {
		if snap := sh.snap.Load(); !inClusterOrder(snap, snap.baseN) {
			t.Fatalf("shard %d: the segment file's lanes past baseN are not in ClusterOrder", i)
		}
	}
	if got := answers("reopened"); !reflect.DeepEqual(got, want) {
		t.Fatalf("the reopened store ranks differently")
	}
}
