package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/graphdim"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// The load model: a closed loop. Each client is one goroutine that issues
// its next call when the previous one has returned; clients = min(nproc,
// 4), and the mixed workload never runs fewer than two (one writer, one
// reader).
func clientCount(w workloadSpec) int {
	n := min(runtime.NumCPU(), maxClients)
	if w.writer && n < 2 {
		n = 2
	}
	return n
}

// tally counts what the fail ratio is made of.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErrs         []string
}

func (t *tally) fail(what string, err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, fmt.Sprintf("%s: %v", what, err))
	}
	t.mu.Unlock()
}

// note records one attempted operation and, if err is non-nil, its failure.
func (t *tally) note(what string, err error) {
	if err != nil {
		t.fail(what, err)
		return
	}
	t.attempted.Add(1)
}

// sample is one timed call: when it ended (ns since the window opened)
// and how long it took.
type sample struct{ end, dur int64 }

// readOp performs the i-th read of a client's fixed sequence against c,
// returning the time the call took and the answer's invariant check.
type readOp func(c *graphdim.Collection, client, i int) (time.Duration, error)

// searchOp cycles through the dense queries, each client starting at its
// own offset so that concurrent clients do not ask the same thing. Beside
// a writer (wr non-nil) it also checks that no answer names an id a Remove
// had acknowledged before the search began, or an id not yet assigned when
// it ended.
func searchOp(in *inputs, w workloadSpec, clients int, wr *writer) readOp {
	opt := w.searchOptions()
	return func(c *graphdim.Collection, client, i int) (time.Duration, error) {
		q := in.queries[(client*len(in.queries)/clients+i)%len(in.queries)]
		var removals int32
		if wr != nil {
			removals = int32(wr.removals.Load())
		}
		t0 := time.Now()
		res, err := c.Search(context.Background(), q, opt)
		d := time.Since(t0)
		if err != nil || wr == nil {
			if err == nil {
				err = checkRanked(res.Results, topK)
			}
			return d, err
		}
		// A result may name ids of the one Add in flight: they are
		// published to the shards before the writer hears its ack.
		next := int(wr.acked.Load()) + batchSize
		return d, checkLive(res.Results, topK, next, func(id int) bool {
			return id < len(wr.removedAt) && wr.removedAt[id] != 0 && wr.removedAt[id] <= removals
		})
	}
}

// pipelineOp parses and runs the client's i-th drawn pipeline document —
// what a /query handler does with a request body.
func pipelineOp(in *inputs) readOp {
	return func(c *graphdim.Collection, client, i int) (time.Duration, error) {
		draws := in.draws[client%len(in.draws)]
		d := draws[i%len(draws)]
		t0 := time.Now()
		_, err := runPipeline(c, in.docs[d.kind][d.doc])
		return time.Since(t0), err
	}
}

func runPipeline(c *graphdim.Collection, doc []byte) (*pipeline.Result, error) {
	p, err := pipeline.Parse(doc)
	if err != nil {
		return nil, err
	}
	return c.Query(context.Background(), p)
}

// window is the outcome of one closed-loop window.
type window struct {
	seconds float64
	reads   []sample // all clients, in no particular order
	writes  []sample // durable Adds of the writer, if any
	// cycleRates holds, for each write cycle that lies wholly in the window
	// (checkpointAt Adds, the Removes between them and the Checkpoint that
	// ends them), the graphs acknowledged per second.
	cycleRates []float64
}

// runWindow warms up for warm seconds without recording, then measures
// for the given seconds. Readers never pause between the two phases.
func runWindow(s *served, w workloadSpec, in *inputs, wr *writer, warm, seconds float64, t *tally) window {
	clients := clientCount(w)
	readers := clients
	if w.writer {
		readers--
	}
	var op readOp
	switch {
	case w.pipes:
		op = pipelineOp(in)
	case w.writer:
		op = searchOp(in, w, clients, wr)
	default:
		op = searchOp(in, w, clients, nil)
	}

	// Every timed phase starts from a collected heap, so that whether a
	// GC cycle lands inside it does not depend on what ran before.
	runtime.GC()
	var open, shut atomic.Int64 // window bounds in ns since base; 0 = not yet known
	base := time.Now()
	logs := make([][]sample, readers)
	var writes []sample
	var checkpoints []int64 // when each Checkpoint in the window returned
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			log := make([]sample, 0, 1<<16)
			for i := 0; ; i++ {
				d, err := op(s.coll, r, i)
				end := time.Since(base).Nanoseconds()
				if sh := shut.Load(); sh != 0 && end > sh {
					break
				}
				t.note("read", err)
				if o := open.Load(); o != 0 && end-d.Nanoseconds() >= o {
					log = append(log, sample{end - o, d.Nanoseconds()})
				}
			}
			logs[r] = log
		}(r)
	}
	if w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st, err := wr.step(s)
				end := time.Since(base).Nanoseconds()
				if sh := shut.Load(); sh != 0 && end > sh {
					break
				}
				t.note("write", err)
				o := open.Load()
				if err != nil || o == 0 {
					continue
				}
				switch {
				case st.kind == stepAdd && end-st.d.Nanoseconds() >= o:
					writes = append(writes, sample{end - o, st.d.Nanoseconds()})
				case st.kind == stepCheckpoint && end >= o:
					checkpoints = append(checkpoints, end)
				}
			}
		}()
	}
	time.Sleep(time.Duration(warm * float64(time.Second)))
	o := time.Since(base).Nanoseconds()
	open.Store(o)
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	shut.Store(time.Since(base).Nanoseconds())
	wg.Wait()

	out := window{seconds: float64(shut.Load()-o) / 1e9, writes: writes}
	for _, l := range logs {
		out.reads = append(out.reads, l...)
	}
	for i := 1; i < len(checkpoints); i++ {
		cycle := float64(checkpoints[i]-checkpoints[i-1]) / 1e9
		out.cycleRates = append(out.cycleRates, float64(wr.checkpointAt*batchSize)/cycle)
	}
	return out
}

// slices is how many equal parts a window is cut into.
const slices = 8

// sliced cuts the samples into the window's slices by the time they ended
// and returns each slice's median latency in ms and its samples per second
// times weight. A slice in which nothing ended has a rate but no median.
func (w window) sliced(ss []sample, weight float64) (meds, rates []float64) {
	width := w.seconds * 1e9 / slices
	per := make([][]float64, slices)
	for _, s := range ss {
		i := min(int(float64(s.end)/width), slices-1)
		per[i] = append(per[i], float64(s.dur)/1e6)
	}
	for _, ds := range per {
		if len(ds) > 0 {
			meds = append(meds, median(ds))
		}
		rates = append(rates, weight*float64(len(ds))/(width/1e9))
	}
	return meds, rates
}

// durations returns the samples' latencies in ms, ascending.
func durations(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur) / 1e6
	}
	sort.Float64s(out)
	return out
}

// writer replays the fixed write sequence of the mixed workload: durable
// Adds of batchSize graphs, a Remove of one base id after every 10th Add,
// a Checkpoint after every checkpointAt Adds. It is also what every
// workload's persistence phase uses for its Adds, so the bookkeeping the
// durability check needs lives in one place.
type writer struct {
	stream       []*graph.Graph
	removeOrder  []int
	checkpointAt int // 0 = never

	adds      int          // Adds attempted so far
	acked     atomic.Int64 // ids [0, acked) were acknowledged
	removals  atomic.Int64 // removeOrder[:removals] were acknowledged
	removedAt []int32      // id → 1+index in removeOrder, 0 = never removed
	pending   stepKind     // what the next step is, when not an Add
}

func newWriter(in *inputs, checkpointAt int) *writer {
	w := &writer{stream: in.stream, removeOrder: in.removeOrder, checkpointAt: checkpointAt}
	w.acked.Store(int64(in.baseN()))
	w.removedAt = make([]int32, in.baseN())
	for i, id := range in.removeOrder {
		w.removedAt[id] = int32(i + 1)
	}
	return w
}

// A step is one call of the write sequence.
type step struct {
	kind  stepKind
	d     time.Duration  // how long the call took
	batch []*graph.Graph // stepAdd: the graphs committed
	first int            // stepAdd: the id of batch[0]
}

type stepKind int

const (
	stepAdd stepKind = iota
	stepRemove
	stepCheckpoint
)

// step performs the next call of the sequence.
func (w *writer) step(s *served) (step, error) {
	switch w.pending {
	case stepRemove:
		w.pending = stepAdd
		if w.checkpointAt > 0 && w.adds%w.checkpointAt == 0 {
			w.pending = stepCheckpoint
		}
		t0 := time.Now()
		if err := s.coll.Remove(w.removeOrder[int(w.removals.Load())%len(w.removeOrder)]); err != nil {
			return step{kind: stepRemove}, fmt.Errorf("remove: %w", err)
		}
		w.removals.Add(1)
		return step{kind: stepRemove, d: time.Since(t0)}, nil
	case stepCheckpoint:
		w.pending = stepAdd
		t0 := time.Now()
		if err := s.store.Checkpoint(); err != nil {
			return step{kind: stepCheckpoint}, fmt.Errorf("checkpoint: %w", err)
		}
		return step{kind: stepCheckpoint, d: time.Since(t0)}, nil
	}
	lo := (w.adds * batchSize) % len(w.stream)
	st := step{kind: stepAdd, batch: w.stream[lo : lo+batchSize], first: int(w.acked.Load())}
	w.adds++
	switch {
	case w.adds%10 == 0:
		w.pending = stepRemove
	case w.checkpointAt > 0 && w.adds%w.checkpointAt == 0:
		w.pending = stepCheckpoint
	}
	t0 := time.Now()
	ids, err := s.coll.Add(context.Background(), st.batch...)
	st.d = time.Since(t0)
	if err != nil {
		return st, err
	}
	if len(ids) != batchSize || ids[0] != st.first {
		return st, fmt.Errorf("add returned ids %v, next id was %d", ids, st.first)
	}
	w.acked.Add(batchSize)
	return st, nil
}

// removedSet lists the ids whose Remove was acknowledged.
func (w *writer) removedSet() map[int]bool {
	r := int(w.removals.Load())
	out := make(map[int]bool, r)
	for _, id := range w.removeOrder[:r] {
		out[id] = true
	}
	return out
}
