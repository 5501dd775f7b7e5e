package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// The persistence phase. Every workload ends the same way, on its own
// store: durable Adds, a Checkpoint, a fixed tail of Adds the checkpoint
// does not cover, an unclean stop (the data directory is copied while the
// store is still open), and OpenStore on the copy. It is where the write
// path, the segment writer and recovery run; on a measured run of the
// mixed workload the Adds already ran beside the readers, so only the rest
// happens here.
//
// The timed Adds come in bursts, and the bursts alternate with the
// reopens: the samples of each number are then spread across several
// seconds of wall time. A burst is cut into chunks of sc.chunkAdds Adds,
// each with its own median and rate, for calm and brisk (stats.go).

type persisted struct {
	writes       []float64 // ms per durable Add, all bursts
	chunkMeds    []float64 // median ms per durable Add, one per chunk of sc.chunkAdds timed Adds
	chunkRates   []float64 // graphs per second over a chunk, the Removes between its Adds included
	burstGraphs  int
	walBytes     int64 // log growth over the bursts
	walAppends   int64 // records appended over the bursts
	walSyncs     int64 // fsyncs issued over the bursts
	checkpoint   time.Duration
	checkpointAt uint64    // the log position the checkpoint covers
	diskBytes    int64     // whole data directory right after the checkpoint
	segmentBytes int64     // its shard-*.gdx files
	liveGraphs   int       // live graphs at that moment
	totalGraphs  int       // id slots at that moment
	reopens      []float64 // ms from OpenStore until firstQueries searches are answered
	readsInCkpt  []float64 // ms; traced runs only
}

// firstQueries is how many searches a reopened store answers before the
// clock stops.
const firstQueries = 16

// storeOptions fixes the flush policy of every store the benchmark opens:
// each commit is fsynced before it is acknowledged (NoSync off), log
// segments are 64 MiB (the default), checkpointed segments are mapped.
func storeOptions(onSync func(time.Duration, int)) graphdim.StoreOptions {
	return graphdim.StoreOptions{Memory: graphdim.MemoryAuto, WAL: graphdim.WALOptions{SyncObserver: onSync}}
}

func persist(s *served, w workloadSpec, in *inputs, sc scale, wr *writer, wd *workDir, t *tally, lp *layerProbe) (*persisted, error) {
	out := &persisted{}
	// No checkpoint may fall inside a burst or the tail: the tail is what
	// recovery replays, and its length is part of the measurement.
	wr.checkpointAt = 0
	if wr.pending == stepCheckpoint {
		wr.pending = stepAdd
	}
	// addN performs the next adds Adds of the write sequence (and the
	// Removes between them).
	addN := func(adds int, timed bool) error {
		runtime.GC() // see runWindow
		before := s.coll.Stats().WAL
		graphs := 0
		chunkStart := time.Now()
		for done := 0; done < adds; {
			st, err := wr.step(s)
			t.note("write", err)
			if err != nil {
				return err
			}
			if st.kind != stepAdd {
				continue
			}
			done++
			if timed {
				out.writes = append(out.writes, float64(st.d.Nanoseconds())/1e6)
				graphs += len(st.batch)
				if lp != nil {
					lp.replayAdd(len(out.writes)-1, st) // traced runs do not use the chunks
				} else if done%sc.chunkAdds == 0 {
					out.chunkMeds = append(out.chunkMeds, median(out.writes[len(out.writes)-sc.chunkAdds:]))
					out.chunkRates = append(out.chunkRates, float64(sc.chunkAdds*batchSize)/time.Since(chunkStart).Seconds())
					chunkStart = time.Now()
				}
			}
		}
		if after := s.coll.Stats().WAL; timed && before != nil && after != nil {
			out.burstGraphs += graphs
			out.walBytes += after.Bytes - before.Bytes
			out.walAppends += after.Appends - before.Appends
			out.walSyncs += after.Syncs - before.Syncs
		}
		return nil
	}
	bursts := sc.reopens + 1
	burst := func() error {
		if w.writer && lp == nil {
			return nil // the writer's Adds were timed in the window
		}
		return addN(sc.burstAdds/bursts, true)
	}

	if err := burst(); err != nil {
		return nil, err
	}
	if err := out.checkpointUnderReads(s, w, in, t, lp != nil); err != nil {
		return nil, err
	}
	var err error
	if out.diskBytes, err = treeBytes(s.dir, "*"); err != nil {
		return nil, err
	}
	if out.segmentBytes, err = treeBytes(s.dir, "shard-*.gdx"); err != nil {
		return nil, err
	}
	out.totalGraphs = int(wr.acked.Load())
	out.liveGraphs = out.totalGraphs - int(wr.removals.Load())
	if st := s.coll.Stats().WAL; st != nil {
		out.checkpointAt = st.CheckpointSeq
	}

	if err := addN(sc.tailAdds, false); err != nil {
		return nil, err
	}

	// The unclean stop: no Close, no final checkpoint. What was
	// acknowledged up to here must be in the copy.
	crashed := wd.next("crashed")
	if err := copyTree(s.dir, crashed); err != nil {
		return nil, err
	}
	acked, removed := int(wr.acked.Load()), wr.removedSet()
	if lp != nil {
		if err := lp.probeRecovery(s.dir, out.checkpointAt, wd); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.reopens; i++ {
		runtime.GC()
		st, c, d, err := recoverAndAnswer(crashed, in, w)
		t.note("reopen", err)
		if err != nil {
			return nil, err
		}
		out.reopens = append(out.reopens, float64(d.Nanoseconds())/1e6)
		if i == 0 {
			live, err := liveIDs(c, acked)
			if err == nil {
				err = checkRecovered(live, acked, removed)
			}
			t.note("recovery", err)
		}
		st.Close()
		if err := burst(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkpointUnderReads times Store.Checkpoint. A traced run keeps one
// reader busy meanwhile, so the stall a checkpoint imposes on reads — which
// a median hides — is seen.
func (out *persisted) checkpointUnderReads(s *served, w workloadSpec, in *inputs, t *tally, withReader bool) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if withReader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := searchOp(in, w, 1, nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d, err := op(s.coll, 0, i)
				t.note("read", err)
				out.readsInCkpt = append(out.readsInCkpt, float64(d.Nanoseconds())/1e6)
			}
		}()
	}
	t0 := time.Now()
	err := s.store.Checkpoint()
	out.checkpoint = time.Since(t0)
	close(stop)
	wg.Wait()
	t.note("checkpoint", err)
	return err
}

// recoverAndAnswer opens the crashed directory and answers the first
// firstQueries searches. A mapped store defers work to its first queries
// (graph payloads are decoded when a scan first touches them, and how many
// one query touches depends on the query), so recovery is timed until
// those answers are out, not just until OpenStore returns.
func recoverAndAnswer(dir string, in *inputs, w workloadSpec) (*graphdim.Store, *graphdim.Collection, time.Duration, error) {
	t0 := time.Now()
	st, err := graphdim.OpenStore(dir, storeOptions(nil))
	if err != nil {
		return nil, nil, 0, err
	}
	c, ok := st.Collection(collectionName)
	if !ok {
		st.Close()
		return nil, nil, 0, fmt.Errorf("collection %q missing after recovery", collectionName)
	}
	for _, q := range in.queries[:min(firstQueries, len(in.queries))] {
		res, err := c.Search(context.Background(), q, w.searchOptions())
		if err == nil {
			err = checkRanked(res.Results, topK)
		}
		if err != nil {
			st.Close()
			return nil, nil, 0, err
		}
	}
	return st, c, time.Since(t0), nil
}

// liveIDs asks the collection for every live id through the public query
// path: a bare limit pipeline enumerates the live graphs in ascending id
// order.
func liveIDs(c *graphdim.Collection, atMost int) ([]int, error) {
	doc, err := json.Marshal(&pipeline.Pipeline{Stages: []pipeline.Stage{{Limit: &pipeline.Limit{N: atMost + 1}}}})
	if err != nil {
		return nil, err
	}
	res, err := runPipeline(c, doc)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r.ID
	}
	return ids, nil
}
