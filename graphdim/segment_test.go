package graphdim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// TestMemoryModeStoreEquivalence is the tentpole equivalence property:
// a checkpointed store reopened with MemoryHeap, MemoryMap, and
// MemoryAuto answers every engine — mapped pruned and flat, verified,
// exact, label-filtered — bit-identically, while the mapped legs serve
// vectors straight out of the segment file and fault graph payloads in
// only for final candidates. The data directory is single-owner
// (flock), so the modes open one after another over the same files.
// Every leg also writes, and after every write and every reopen each
// shard must satisfy assertOneVectorStore.
func TestMemoryModeStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 60)
	ctx := context.Background()
	dir := t.TempDir()

	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, cc *Collection, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for sh := range cc.shards {
			assertOneVectorStore(t, fmt.Sprintf("%s shard %d", name, sh), cc.shards[sh])
		}
	}
	// mutate writes through an open store: pre-checkpoint writes become
	// segment base, the rest a WAL-tail heap overlay for the next open.
	mutate := func(leg string, st *Store, cc *Collection, gs []*Graph, also ...int) {
		t.Helper()
		ids, err := cc.Add(ctx, gs[:len(gs)/2]...)
		step(leg+" add", cc, err)
		step(leg+" checkpoint", cc, st.Checkpoint())
		_, err = cc.Add(ctx, gs[len(gs)/2:]...)
		step(leg+" tail add", cc, err)
		step(leg+" remove", cc, cc.Remove(append(also, ids[0])...))
	}
	extra := dataset.Synthetic(dataset.SynthConfig{N: 12, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	late := dataset.Synthetic(dataset.SynthConfig{N: 9, AvgEdges: 8, Labels: 5, Seed: rng.Int63()})
	mutate("create", s, c, extra, 3, 5)
	s.Close()

	queries := append([]*Graph{db[rng.Intn(len(db))], extra[2]},
		dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)

	// A vertex-label filter forces the lazy label index on the mapped
	// snapshots — the one deliberate whole-corpus fault.
	var label int
	vh, _ := db[0].LabelHistogram()
	for l := range vh {
		label = int(l)
		break
	}
	opts := []SearchOptions{
		{K: 7},
		{K: 7, NoPrune: true},
		{K: 5, Engine: EngineVerified, VerifyFactor: 2},
		{K: 4, Engine: EngineExact},
		{K: 6, Filters: []*pipeline.Filter{{VertexLabels: []pipeline.LabelCount{{Label: label}}}}},
	}

	open := func(mode MemoryMode) (*Store, *Collection) {
		t.Helper()
		st, err := OpenStore(dir, StoreOptions{Memory: mode})
		if err != nil {
			t.Fatalf("OpenStore(mode=%d): %v", mode, err)
		}
		cc, ok := st.Collection("c")
		if !ok {
			t.Fatalf("OpenStore(mode=%d): collection lost", mode)
		}
		return st, cc
	}
	runAll := func(cc *Collection) [][]Result {
		t.Helper()
		out := make([][]Result, 0, len(queries)*len(opts))
		for qi, q := range queries {
			for oi, opt := range opts {
				res, err := cc.Search(ctx, q, opt)
				if err != nil {
					t.Fatalf("query %d opt %d: %v", qi, oi, err)
				}
				out = append(out, res.Results)
			}
		}
		return out
	}

	// Heap leg first: the reference rankings.
	heapS, heapC := open(MemoryHeap)
	if _, seg := snapSeg(heapC, 0); seg != nil {
		t.Fatal("MemoryHeap open kept a segment source")
	}
	step("heap reopen", heapC, nil)
	mutate("heap", heapS, heapC, late[:3])
	want := runAll(heapC)
	heapS.Close()

	// Mapped leg: lazy at open, lazy through unfiltered queries,
	// bit-identical throughout.
	mapS, mapC := open(MemoryMap)
	if segment.CanMap() {
		overlay := 0 // ids above the mapped bases: the boundary step() straddles
		for sh := 0; sh < 2; sh++ {
			snap, seg := snapSeg(mapC, sh)
			if seg == nil {
				t.Fatalf("MemoryMap shard %d has no segment source", sh)
			}
			if !seg.r.Mapped() {
				t.Fatalf("MemoryMap shard %d segment not mmapped", sh)
			}
			for i := range seg.graphs {
				if snap.db[i] != nil {
					t.Fatalf("MemoryMap shard %d: base slot %d eagerly decoded at open", sh, i)
				}
			}
			overlay += len(snap.db) - len(seg.graphs)
		}
		if overlay == 0 {
			t.Fatal("MemoryMap open has no heap overlay above the mapped bases")
		}
	}
	// Unfiltered engines only (mapped flat/pruned + verified): after
	// these, only final candidates may have been faulted in. Exact and
	// filtered queries legitimately touch everything, so they run after
	// the check.
	for qi, q := range queries {
		for oi, opt := range opts[:3] {
			res, err := mapC.Search(ctx, q, opt)
			if err != nil {
				t.Fatalf("map query %d opt %d: %v", qi, oi, err)
			}
			if !reflect.DeepEqual(res.Results, want[qi*len(opts)+oi]) {
				t.Fatalf("map query %d opt %d diverges from heap:\nmap:  %v\nheap: %v",
					qi, oi, res.Results, want[qi*len(opts)+oi])
			}
		}
	}
	if segment.CanMap() {
		decoded, total := 0, 0
		for sh := 0; sh < 2; sh++ {
			_, seg := snapSeg(mapC, sh)
			total += len(seg.graphs)
			for i := range seg.graphs {
				if seg.graphs[i].Load() != nil {
					decoded++
				}
			}
		}
		if decoded >= total {
			t.Fatalf("mapped+verified queries faulted in the whole corpus (%d/%d)", decoded, total)
		}
		t.Logf("after mapped+verified queries: %d/%d graph payloads faulted", decoded, total)
	}
	if got := runAll(mapC); !reflect.DeepEqual(got, want) {
		t.Fatal("MemoryMap rankings diverge from MemoryHeap")
	}

	// The mapped store stays writable: post-open writes overlay the
	// mapping and the next checkpoint writes a fresh segment from it. The
	// invariant check faults the corpus in, so it comes only now.
	step("map reopen", mapC, nil)
	mutate("map", mapS, mapC, late[3:6])
	wantStats := mapC.Stats()
	want2 := runAll(mapC)
	mapS.Close()

	// Auto leg reopens the segment the mapped leg just checkpointed and
	// must agree on content and every ranking.
	autoS, autoC := open(MemoryAuto)
	defer autoS.Close()
	if gs := autoC.Stats(); gs.NextID != wantStats.NextID || gs.Live != wantStats.Live {
		t.Fatalf("auto reopen stats %+v, mapped leg had %+v", gs, wantStats)
	}
	if got := runAll(autoC); !reflect.DeepEqual(got, want2) {
		t.Fatal("MemoryAuto rankings diverge from the mapped leg's post-write state")
	}
	step("auto reopen", autoC, nil)
	mutate("auto", autoS, autoC, late[6:])
}

// TestOpenStoreRejectsTornSegment: a shard segment torn mid-trailer —
// the shape a crashed checkpoint or truncated copy leaves behind — must
// fail the open with an error, in every memory mode, not serve garbage.
func TestOpenStoreRejectsTornSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, _ := equivBuild(t, rng, 20)
	dir := t.TempDir()
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
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files found: %v", err)
	}
	st, err := os.Stat(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MemoryMode{MemoryAuto, MemoryMap, MemoryHeap} {
			if got, err := OpenStore(dir, StoreOptions{Memory: mode}); err == nil {
				got.Close()
				t.Fatalf("%s: OpenStore(mode=%d) accepted a corrupt segment", name, mode)
			}
		}
		if err := os.WriteFile(shards[0], pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt("torn mid-trailer", func() error {
		return os.Truncate(shards[0], st.Size()-40)
	})
	corrupt("truncated to half", func() error {
		return os.Truncate(shards[0], st.Size()/2)
	})
	corrupt("trailer bit flip", func() error {
		f, err := os.OpenFile(shards[0], os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt([]byte{pristine[st.Size()-20] ^ 0x40}, st.Size()-20)
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

// TestReadIndexSegmentRoundTrip covers the io.Reader leg (generic
// ReadIndex — the portable, heap-only path every platform has): a v4
// segment streamed through a pipe-shaped reader must rehydrate to an
// index that answers exactly like its source.
func TestReadIndexSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 30)
	if _, err := idx.Add(dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 8, Labels: 5, Seed: rng.Int63()})...); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(1, 7); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := idx.writeSegment(&buf, idx.snap.Load()); err != nil {
		t.Fatal(err)
	}
	re, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.TotalGraphs() != idx.TotalGraphs() || re.Size() != idx.Size() {
		t.Fatalf("rehydrated %d total/%d live, want %d/%d", re.TotalGraphs(), re.Size(), idx.TotalGraphs(), idx.Size())
	}
	if re.snap.Load().seg != nil {
		t.Fatal("ReadIndex kept a segment source; the reader leg must be fully heap-resident")
	}
	ctx := context.Background()
	queries := append([]*Graph{db[3]}, dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	for qi, q := range queries {
		for _, opt := range []SearchOptions{
			{K: 6},
			{K: 6, NoPrune: true},
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
				t.Fatalf("query %d %s: rehydrated ranking diverges:\ngot:  %v\nwant: %v", qi, fmt.Sprint(opt.Engine), got.Results, want.Results)
			}
		}
	}
}

// TestCorruptMappedPayloadFailsTheQuery: VerifyBody does not run on a
// mapped open, so a bit flipped in a graph payload after its checkpoint
// is first seen by whichever query resolves that graph. Every query path
// that does — a Predicate search, a search under a label filter (its
// label-index build reads every graph), a group_by scan, and a group_by
// over search results — must return an error naming the graph; none may
// panic, and queries that resolve no graph keep working.
func TestCorruptMappedPayloadFailsTheQuery(t *testing.T) {
	if !segment.CanMap() {
		t.Skip("no mmap on this platform")
	}
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 30)
	dir := t.TempDir()
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

	// Overwrite the leading vertex-count varint of graph `victim` with a
	// count no graph may have, so graph.ReadBinary refuses the payload.
	const victim = 7
	shards, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("shard files: %v %v", shards, err)
	}
	data, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.NewReader(data, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.GraphBytes(victim)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob, []byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // blob aliases data
	if err := os.WriteFile(shards[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = OpenStore(dir, StoreOptions{Memory: MemoryMap})
	if err != nil {
		t.Fatalf("a mapped open reads no payload, so it must succeed: %v", err)
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
			// The flat scan asks the predicate about every live id.
			_, err := c.Search(ctx, q, SearchOptions{K: 5, NoPrune: true, Predicate: func(int, *Graph) bool { return true }})
			return err
		},
		"filtered search": func() error {
			_, err := c.Search(ctx, q, SearchOptions{K: 5, Filters: []*pipeline.Filter{labelFilter}})
			return err
		},
		"residual-filtered search": func() error {
			_, err := c.Search(ctx, q, SearchOptions{K: 5, NoPrune: true, Filters: []*pipeline.Filter{{MinVertices: 1}}})
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
	want := fmt.Sprintf("corrupt graph %d", victim)
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
	if g := c.shards[0].Graph(victim); g != nil {
		t.Errorf("Index.Graph(%d) = %v, want nil", victim, g)
	}
	if g, ok := c.Graph(victim + 1); g == nil || !ok {
		t.Errorf("Collection.Graph(%d) = %v, %v; an intact graph must resolve", victim+1, g, ok)
	}
}
