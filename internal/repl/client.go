package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/wal"
)

// Applier is the follower-side sink the Tailer feeds. The store layer
// implements it: Apply persists and replays a batch of records, AckSeq
// reports the durable resume position, and AppliedSeq the locally
// applied watermark.
type Applier interface {
	Apply(ctx context.Context, recs []wal.Record) error
	AckSeq() uint64
	AppliedSeq() uint64
}

// Config configures a Tailer.
type Config struct {
	// PrimaryURL is the primary's base URL, e.g. "http://primary:8080".
	PrimaryURL string
	// Collection to replicate.
	Collection string
	// FollowerID is this follower's stable identity; the primary keys
	// its retention holds on it.
	FollowerID string
	// Applier receives the records.
	Applier Applier
	// Client is the HTTP client; http.DefaultClient when nil. It must
	// not impose a response timeout (the tail stream is unbounded).
	Client *http.Client

	// The rest are hooks for this package's tests, unexported so callers
	// cannot reach them; zero selects the default. minBackoff and
	// maxBackoff bound the jittered reconnect delay (100ms and 5s);
	// batchMax caps how many records are buffered before Apply is called
	// mid-stream (64).
	minBackoff time.Duration
	maxBackoff time.Duration
	batchMax   int
}

// Status is a point-in-time snapshot of a Tailer, for metrics and
// health reporting.
type Status struct {
	Connected      bool
	NeedsBootstrap bool
	LastError      string
	Reconnects     uint64
	RecordsApplied uint64
	// PrimaryApplied is the primary's applied sequence from its most
	// recent heartbeat; LocalApplied and LocalDurable come from the
	// Applier. The replay lag in records is PrimaryApplied−LocalApplied.
	PrimaryApplied uint64
	LocalApplied   uint64
	LocalDurable   uint64
	// LastProgress is when a record or heartbeat last arrived.
	LastProgress time.Time
}

// Tailer maintains the follower's connection to the primary's WAL-tail
// endpoint: it connects, streams envelopes into the Applier, acks
// progress, and reconnects with jittered exponential backoff.
type Tailer struct {
	cfg Config

	mu sync.Mutex
	st Status
}

// NewTailer validates cfg and returns a tailer ready to Run.
func NewTailer(cfg Config) (*Tailer, error) {
	if cfg.PrimaryURL == "" || cfg.Collection == "" || cfg.FollowerID == "" || cfg.Applier == nil {
		return nil, fmt.Errorf("repl: tailer config missing primary URL, collection, follower id, or applier")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.minBackoff <= 0 {
		cfg.minBackoff = 100 * time.Millisecond
	}
	if cfg.maxBackoff <= 0 {
		cfg.maxBackoff = 5 * time.Second
	}
	if cfg.batchMax <= 0 {
		cfg.batchMax = 64
	}
	return &Tailer{cfg: cfg}, nil
}

// Status returns a snapshot of the tailer's progress.
func (t *Tailer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.LocalApplied = t.cfg.Applier.AppliedSeq()
	st.LocalDurable = t.cfg.Applier.AckSeq()
	return st
}

// Run tails the primary until ctx is cancelled or the primary reports
// the follower's position truncated (ErrNeedsBootstrap) — every other
// failure is retried with backoff. On a clean cancel it returns
// ctx.Err().
func (t *Tailer) Run(ctx context.Context) error {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := t.cfg.minBackoff
	for {
		madeProgress, err := t.tailOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrNeedsBootstrap) {
			t.setState(func(st *Status) {
				st.Connected = false
				st.NeedsBootstrap = true
				st.LastError = err.Error()
			})
			return err
		}
		t.setState(func(st *Status) {
			st.Connected = false
			st.Reconnects++
			if err != nil {
				st.LastError = err.Error()
			}
		})
		if madeProgress {
			backoff = t.cfg.minBackoff
		}
		// Jittered exponential backoff: sleep in [backoff/2, backoff).
		delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > t.cfg.maxBackoff {
			backoff = t.cfg.maxBackoff
		}
	}
}

func (t *Tailer) setState(f func(*Status)) {
	t.mu.Lock()
	f(&t.st)
	t.mu.Unlock()
}

// tailOnce runs one connection lifetime and reports whether any
// progress (records or heartbeats) was made on it.
func (t *Tailer) tailOnce(ctx context.Context) (progress bool, err error) {
	after := t.cfg.Applier.AckSeq()
	tailURL := fmt.Sprintf("%s/v1/replication/%s/wal?after=%d&follower=%s",
		t.cfg.PrimaryURL, url.PathEscape(t.cfg.Collection), after, url.QueryEscape(t.cfg.FollowerID))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tailURL, nil)
	if err != nil {
		return false, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return false, fmt.Errorf("repl: connecting to primary: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return false, ErrNeedsBootstrap
	default:
		return false, fmt.Errorf("repl: primary answered %s", resp.Status)
	}
	t.setState(func(st *Status) {
		st.Connected = true
		st.LastError = ""
	})

	sr := NewStreamReader(resp.Body)
	var batch []wal.Record
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := t.cfg.Applier.Apply(ctx, batch); err != nil {
			return fmt.Errorf("repl: applying records: %w", err)
		}
		n := uint64(len(batch))
		t.setState(func(st *Status) { st.RecordsApplied += n })
		batch = batch[:0]
		return nil
	}
	for {
		ev, err := sr.Next()
		if err != nil {
			if err == io.EOF {
				return progress, flush()
			}
			if ferr := flush(); ferr != nil {
				return progress, ferr
			}
			return progress, err
		}
		progress = true
		switch {
		case ev.Truncated:
			return progress, ErrNeedsBootstrap
		case ev.Heartbeat:
			// The stream is caught up: apply what it delivered, then ack.
			if err := flush(); err != nil {
				return progress, err
			}
			t.setState(func(st *Status) {
				st.PrimaryApplied = ev.Applied
				st.LastProgress = time.Now()
			})
			t.ack(ctx)
		default:
			batch = append(batch, ev.Record)
			if ev.Record.Seq > 0 {
				seq := ev.Record.Seq
				t.setState(func(st *Status) {
					if seq > st.PrimaryApplied {
						st.PrimaryApplied = seq
					}
					st.LastProgress = time.Now()
				})
			}
			if len(batch) >= t.cfg.batchMax {
				if err := flush(); err != nil {
					return progress, err
				}
			}
		}
	}
}

// ack reports the follower's durable position so the primary can
// release retention holds. Best-effort: a lost ack only delays
// truncation.
func (t *Tailer) ack(ctx context.Context) {
	seq := t.cfg.Applier.AckSeq()
	ackURL := fmt.Sprintf("%s/v1/replication/%s/ack?follower=%s&seq=%d",
		t.cfg.PrimaryURL, url.PathEscape(t.cfg.Collection), url.QueryEscape(t.cfg.FollowerID), seq)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ackURL, nil)
	if err != nil {
		return
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}
