package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

// testGraph builds a small distinguishable graph: a path of n vertices
// labeled base, base+1, ...
func testGraph(n int, base int) *graph.Graph {
	g := graph.New(0)
	for v := 0; v < n; v++ {
		g.AddVertex(graph.Label(base + v))
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, graph.Label(base))
	}
	return g
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := []wal.Record{
		{Seq: 1, Type: wal.TypeAdd, First: 1, Graphs: []*graph.Graph{testGraph(3, 1), testGraph(2, 5)}},
		{Seq: 2, Type: wal.TypeRemove, IDs: []int{2, 7}},
	}
	for _, rec := range recs {
		if err := WriteRecord(&buf, rec); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	if err := WriteHeartbeat(&buf, 3); err != nil {
		t.Fatalf("WriteHeartbeat: %v", err)
	}
	if err := WriteTruncated(&buf); err != nil {
		t.Fatalf("WriteTruncated: %v", err)
	}

	sr := NewStreamReader(&buf)
	for i, want := range recs {
		ev, err := sr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Heartbeat || ev.Truncated {
			t.Fatalf("event %d: wanted a record, got %+v", i, ev)
		}
		got := ev.Record
		if got.Seq != want.Seq || got.Type != want.Type || got.First != want.First {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
		if len(got.Graphs) != len(want.Graphs) || len(got.IDs) != len(want.IDs) {
			t.Fatalf("event %d: payload mismatch: got %+v, want %+v", i, got, want)
		}
		for j := range want.Graphs {
			if got.Graphs[j].Signature() != want.Graphs[j].Signature() {
				t.Fatalf("event %d graph %d: got %v, want %v", i, j, got.Graphs[j], want.Graphs[j])
			}
		}
		for j := range want.IDs {
			if got.IDs[j] != want.IDs[j] {
				t.Fatalf("event %d id %d: got %d, want %d", i, j, got.IDs[j], want.IDs[j])
			}
		}
	}
	ev, err := sr.Next()
	if err != nil || !ev.Heartbeat || ev.Applied != 3 {
		t.Fatalf("heartbeat: got %+v, %v", ev, err)
	}
	ev, err = sr.Next()
	if err != nil || !ev.Truncated {
		t.Fatalf("truncated: got %+v, %v", ev, err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestEnvelopeRejectsUnknownTag(t *testing.T) {
	sr := NewStreamReader(bytes.NewReader([]byte{0x7f}))
	if _, err := sr.Next(); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestEncodeFrameRequiresSeq(t *testing.T) {
	if err := WriteRecord(io.Discard, wal.Record{Type: wal.TypeAdd}); err == nil {
		t.Fatal("record without sequence accepted")
	}
}

func TestStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl-state.json")

	st, err := LoadState(path)
	if err != nil {
		t.Fatalf("LoadState on missing file: %v", err)
	}
	if st != (State{}) {
		t.Fatalf("missing file should load as zero state, got %+v", st)
	}

	want := State{FollowerID: "f-42"}
	if err := want.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadState(path)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Save left its temp file behind (stat err %v)", err)
	}

	// A file an earlier release wrote with an acked_seq still loads.
	if err := os.WriteFile(path, []byte(`{"follower_id":"f-7","acked_seq":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadState(path); err != nil || got != (State{FollowerID: "f-7"}) {
		t.Fatalf("LoadState of an old file = %+v, %v", got, err)
	}
}

// memApplier is a test Applier that records everything it receives.
type memApplier struct {
	mu      sync.Mutex
	recs    []wal.Record
	applied uint64
	failOn  uint64 // Apply fails when a batch contains this seq
}

func (m *memApplier) Apply(ctx context.Context, recs []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		if m.failOn != 0 && r.Seq == m.failOn {
			return errors.New("injected apply failure")
		}
	}
	m.recs = append(m.recs, recs...)
	m.applied = recs[len(recs)-1].Seq
	return nil
}

func (m *memApplier) AckSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

func (m *memApplier) AppliedSeq() uint64 { return m.AckSeq() }

func (m *memApplier) seqs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, len(m.recs))
	for i, r := range m.recs {
		out[i] = r.Seq
	}
	return out
}

// fakePrimary serves the tail endpoint from a fixed record slice,
// sending a heartbeat once caught up, and records acks.
type fakePrimary struct {
	mu      sync.Mutex
	recs    []wal.Record // all seqs contiguous from 1
	acks    []uint64
	hangups int // connections served that ended after one pass
}

func (p *fakePrimary) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/{collection}/wal", func(w http.ResponseWriter, r *http.Request) {
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		p.mu.Lock()
		recs := p.recs
		p.mu.Unlock()
		for _, rec := range recs {
			if rec.Seq <= after {
				continue
			}
			if err := WriteRecord(w, rec); err != nil {
				return
			}
		}
		WriteHeartbeat(w, uint64(len(recs)))
		p.mu.Lock()
		p.hangups++
		p.mu.Unlock()
		// Hang up; the tailer reconnects from its acked offset.
	})
	mux.HandleFunc("POST /v1/replication/{collection}/ack", func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
		p.mu.Lock()
		p.acks = append(p.acks, seq)
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func makeRecs(n int) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = wal.Record{Seq: uint64(i + 1), Type: wal.TypeRemove, IDs: []int{i}}
	}
	return recs
}

func TestTailerStreamsAppliesAndAcks(t *testing.T) {
	prim := &fakePrimary{recs: makeRecs(10)}
	srv := httptest.NewServer(prim.handler())
	defer srv.Close()

	app := &memApplier{}
	tl, err := NewTailer(Config{
		PrimaryURL: srv.URL, Collection: "c", FollowerID: "f1", Applier: app,
		minBackoff: time.Millisecond, maxBackoff: 5 * time.Millisecond, batchMax: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tl.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for app.AckSeq() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("tailer never caught up: applied %d/10", app.AckSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Extend the log; a reconnect must resume past the acked prefix with
	// no replays or gaps.
	prim.mu.Lock()
	prim.recs = makeRecs(15)
	prim.mu.Unlock()
	for app.AckSeq() < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("tailer never saw extended log: applied %d/15", app.AckSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The tailer posts its ack after the applier reports the batch
	// durable; wait for that post (or the deadline) before cancelling, so
	// the final-ack check below does not race it.
	for time.Now().Before(deadline) {
		prim.mu.Lock()
		n := len(prim.acks)
		last := uint64(0)
		if n > 0 {
			last = prim.acks[n-1]
		}
		prim.mu.Unlock()
		if last == 15 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	seqs := app.seqs()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("applied sequence %d at position %d: records replayed or skipped: %v", s, i, seqs)
		}
	}
	if len(seqs) != 15 {
		t.Fatalf("applied %d records, want 15", len(seqs))
	}
	prim.mu.Lock()
	defer prim.mu.Unlock()
	if len(prim.acks) == 0 || prim.acks[len(prim.acks)-1] != 15 {
		t.Fatalf("primary acks %v, want final ack 15", prim.acks)
	}
	st := tl.Status()
	if st.RecordsApplied != 15 || st.PrimaryApplied != 15 || st.LocalDurable != 15 {
		t.Fatalf("status %+v, want 15 records applied/primary/durable", st)
	}
}

func TestTailerBootstrapSignal(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/{collection}/wal", func(w http.ResponseWriter, r *http.Request) {
		WriteTruncated(w)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	app := &memApplier{}
	tl, err := NewTailer(Config{PrimaryURL: srv.URL, Collection: "c", FollowerID: "f1", Applier: app})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tl.Run(ctx); !errors.Is(err, ErrNeedsBootstrap) {
		t.Fatalf("Run returned %v, want ErrNeedsBootstrap", err)
	}
	if st := tl.Status(); !st.NeedsBootstrap {
		t.Fatalf("status %+v, want NeedsBootstrap", st)
	}
}

func TestTailerBootstrapOnGone(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/{collection}/wal", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "truncated", http.StatusGone)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	app := &memApplier{}
	tl, err := NewTailer(Config{PrimaryURL: srv.URL, Collection: "c", FollowerID: "f1", Applier: app})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tl.Run(ctx); !errors.Is(err, ErrNeedsBootstrap) {
		t.Fatalf("Run returned %v, want ErrNeedsBootstrap", err)
	}
}

func TestTailerRetriesAfterApplyFailure(t *testing.T) {
	prim := &fakePrimary{recs: makeRecs(5)}
	srv := httptest.NewServer(prim.handler())
	defer srv.Close()

	app := &memApplier{failOn: 3}
	tl, err := NewTailer(Config{
		PrimaryURL: srv.URL, Collection: "c", FollowerID: "f1", Applier: app,
		minBackoff: time.Millisecond, maxBackoff: 5 * time.Millisecond, batchMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tl.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for app.AckSeq() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("tailer made no progress before the injected failure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Clear the fault: the tailer must recover via reconnect.
	app.mu.Lock()
	app.failOn = 0
	app.mu.Unlock()
	for app.AckSeq() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("tailer never recovered: applied %d/5", app.AckSeq())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	seqs := app.seqs()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("applied out of order after retry: %v", seqs)
		}
	}
}

// TestTailerStopsAtUnreadableRecord: a primary of an older release ships
// a well-checksummed partial-add amendment (type 3) between two removes.
// The follower applies the record before it, never the one after, and
// its status names the refusal.
func TestTailerStopsAtUnreadableRecord(t *testing.T) {
	recs := makeRecs(3)
	amend := binary.AppendUvarint(nil, 2)
	amend = append(amend, 3)
	amend = binary.AppendUvarint(amend, 4)
	amend = append(amend, 4, 2, 1, 5)
	amend = binary.LittleEndian.AppendUint32(amend, crc32.ChecksumIEEE(amend))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/{collection}/wal", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("after") == "0" {
			WriteRecord(w, recs[0])
		}
		w.Write(append([]byte{tagRecord}, amend...))
		WriteRecord(w, recs[2])
		WriteHeartbeat(w, 3)
	})
	mux.HandleFunc("POST /v1/replication/{collection}/ack", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	app := &memApplier{}
	tl, err := NewTailer(Config{
		PrimaryURL: srv.URL, Collection: "c", FollowerID: "f1", Applier: app,
		minBackoff: time.Millisecond, maxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tl.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(tl.Status().LastError, "record type 3 is a partial-add amendment") {
		if time.Now().After(deadline) {
			t.Fatalf("status never named the refusal: %+v", tl.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	if seqs := app.seqs(); !reflect.DeepEqual(seqs, []uint64{1}) {
		t.Fatalf("applied %v, want only the record before the amendment", seqs)
	}
}
