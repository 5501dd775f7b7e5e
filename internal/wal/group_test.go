package wal

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// groupSeed mirrors graphdim's equivSeed convention: randomized runs log
// their seed, and GRAPHDIM_EQUIV_SEED replays a failure exactly.
func groupSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("GRAPHDIM_EQUIV_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GRAPHDIM_EQUIV_SEED=%q: %v", v, err)
		}
		t.Logf("replaying GRAPHDIM_EQUIV_SEED=%d", seed)
		return seed
	}
	seed := time.Now().UnixNano()
	t.Logf("random run; replay with GRAPHDIM_EQUIV_SEED=%d", seed)
	return seed
}

// TestGroupCommitConcurrentAppends races many appenders through the
// serialized append path: every append gets a unique, dense sequence
// number, replay returns all records in sequence order, and the observer
// saw every committed record exactly once.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 25

	var obsMu sync.Mutex
	var obsRecords, obsSyncs int
	l, err := Open(t.TempDir(), Options{
		SyncObserver: func(d time.Duration, records int) {
			obsMu.Lock()
			obsRecords += records
			obsSyncs++
			obsMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	// Each record carries a unique First so replayed records can be
	// matched back to the append that produced them.
	seqs := make([]uint64, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				seq, err := l.Append(Record{Type: TypeAdd, First: id, Graphs: []*graph.Graph{testGraph(2+id%3, id)}})
				if err != nil {
					t.Errorf("Append(%d): %v", id, err)
					return
				}
				seqs[id] = seq
			}
		}(w)
	}
	wg.Wait()

	// Sequence numbers are exactly 1..N, no gaps, no duplicates.
	sorted := append([]uint64(nil), seqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, s := range sorted {
		if s != uint64(i+1) {
			t.Fatalf("sequence numbers not dense: position %d has %d", i, s)
		}
	}

	// Replay yields every record, in sequence order, with First matching
	// the seq that Append reported for it.
	recs := collect(t, l, 0)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("replay out of order: position %d has seq %d", i, rec.Seq)
		}
		if seqs[rec.First] != rec.Seq {
			t.Fatalf("record First=%d replayed at seq %d, appended at %d", rec.First, rec.Seq, seqs[rec.First])
		}
	}

	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Stats.Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Syncs > st.Appends || st.Syncs <= 0 {
		t.Fatalf("Stats.Syncs = %d, want in [1, %d]", st.Syncs, st.Appends)
	}
	if st.MaxBatch < 1 || st.MaxBatch > writers*perWriter {
		t.Fatalf("Stats.MaxBatch = %d out of range", st.MaxBatch)
	}
	if st.SyncNanos <= 0 {
		t.Fatalf("Stats.SyncNanos = %d, want > 0", st.SyncNanos)
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsRecords != writers*perWriter {
		t.Fatalf("observer saw %d records, want %d", obsRecords, writers*perWriter)
	}
	if int64(obsSyncs) != st.Syncs {
		t.Fatalf("observer saw %d syncs, Stats says %d", obsSyncs, st.Syncs)
	}
}

// TestGroupCommitEncodeFailureIsIsolated checks that a record that fails
// to encode fails alone: it consumes no sequence number and the next
// record still commits.
func TestGroupCommitEncodeFailureIsIsolated(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	if _, err := l.Append(Record{Type: TypeAdd, First: -1, Graphs: []*graph.Graph{testGraph(2, 0)}}); err == nil {
		t.Fatalf("Append with negative First succeeded, want error")
	}
	seq := mustAppend(t, l, Record{Type: TypeAdd, First: 0, Graphs: []*graph.Graph{testGraph(2, 0)}})
	if seq != 1 {
		t.Fatalf("first good append got seq %d, want 1 (bad record must not consume a seq)", seq)
	}
}

// TestGroupCommitFailSyncFailsGroup injects an fsync failure and checks
// that the failed append commits nothing — no sequence number, no bytes
// on disk — and that the log keeps working afterwards.
func TestGroupCommitFailSyncFailsGroup(t *testing.T) {
	var failing bool
	var mu sync.Mutex
	boom := errors.New("injected fsync failure")
	l, err := Open(t.TempDir(), Options{
		FailSync: func() error {
			mu.Lock()
			defer mu.Unlock()
			if failing {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	mustAppend(t, l, Record{Type: TypeAdd, First: 0, Graphs: []*graph.Graph{testGraph(3, 1)}})

	mu.Lock()
	failing = true
	mu.Unlock()
	if _, err := l.Append(Record{Type: TypeAdd, First: 1, Graphs: []*graph.Graph{testGraph(3, 2)}}); !errors.Is(err, boom) {
		t.Fatalf("Append under failing fsync: err = %v, want %v", err, boom)
	}
	mu.Lock()
	failing = false
	mu.Unlock()

	// The failed record left nothing behind: the next append reuses its
	// sequence number and replay sees only the two committed records.
	seq := mustAppend(t, l, Record{Type: TypeAdd, First: 2, Graphs: []*graph.Graph{testGraph(3, 3)}})
	if seq != 2 {
		t.Fatalf("append after failed commit got seq %d, want 2", seq)
	}
	recs := collect(t, l, 0)
	if len(recs) != 2 || recs[0].First != 0 || recs[1].First != 2 {
		t.Fatalf("replay after failed commit: got %+v, want Firsts [0 2]", recs)
	}
	if st := l.Stats(); st.Appends != 2 || st.LastSeq != 2 {
		t.Fatalf("Stats after failed commit = %+v, want Appends=2 LastSeq=2", st)
	}
}

// TestGroupCommitCrashRandomized is the concurrent-append crash property
// test: N goroutines race appends while fsync failures are injected at
// random, then the "process" dies — the file may additionally take a
// torn partial frame, as if an append's write was cut mid-frame. The
// reopened log must replay exactly the acknowledged subset: every acked
// record present, every failed or torn record absent, sequences dense.
func TestGroupCommitCrashRandomized(t *testing.T) {
	seed := groupSeed(t)
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(seed + int64(round)))
		dir := t.TempDir()
		failRate := rng.Float64() * 0.5

		var mu sync.Mutex
		frng := rand.New(rand.NewSource(rng.Int63()))
		l, err := Open(dir, Options{
			SegmentBytes: 1 << 12, // force rolls mid-run
			FailSync: func() error {
				mu.Lock()
				defer mu.Unlock()
				if frng.Float64() < failRate {
					return errors.New("injected fsync failure")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("round %d: Open: %v", round, err)
		}

		// Writers race; acked records are keyed by their unique First.
		const writers, perWriter = 6, 20
		acked := make(map[int]uint64)
		var ackMu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := w*perWriter + i
					rec := Record{Type: TypeAdd, First: id, Graphs: []*graph.Graph{testGraph(2+id%4, id)}}
					if id%7 == 0 {
						rec = Record{Type: TypeRemove, First: 0, IDs: []int{id}}
						rec.First = id // keep the unique key even for removes
					}
					seq, err := l.Append(rec)
					if err != nil {
						continue // failed commit: must NOT surface on replay
					}
					ackMu.Lock()
					acked[id] = seq
					ackMu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}

		// Crash cut: on odd rounds, append a torn frame — a valid
		// record's bytes truncated mid-payload, as left by an append whose
		// write was interrupted before its fsync (so never acked).
		if round%2 == 1 {
			frame, err := encodeFrame(uint64(len(acked))+1, Record{Type: TypeAdd, First: 10_000, Graphs: []*graph.Graph{testGraph(5, 9)}})
			if err != nil {
				t.Fatalf("round %d: encodeFrame: %v", round, err)
			}
			cut := 1 + rng.Intn(len(frame)-1)
			seg := activeSegment(t, dir)
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("round %d: open active segment: %v", round, err)
			}
			if _, err := f.Write(frame[:cut]); err != nil {
				t.Fatalf("round %d: tear: %v", round, err)
			}
			f.Close()
		}

		// Recover and compare: exactly the acked set, in dense seq order.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		recs := collect(t, l2, 0)
		if len(recs) != len(acked) {
			t.Fatalf("round %d (seed %d): recovered %d records, acked %d", round, seed, len(recs), len(acked))
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("round %d (seed %d): replay position %d has seq %d", round, seed, i, rec.Seq)
			}
			key := rec.First
			if rec.Type == TypeRemove {
				key = rec.IDs[0]
			}
			want, ok := acked[key]
			if !ok {
				t.Fatalf("round %d (seed %d): recovered unacked record First=%d seq=%d", round, seed, key, rec.Seq)
			}
			if want != rec.Seq {
				t.Fatalf("round %d (seed %d): record %d acked at seq %d, replayed at %d", round, seed, key, want, rec.Seq)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("round %d: close recovered log: %v", round, err)
		}
	}
}
