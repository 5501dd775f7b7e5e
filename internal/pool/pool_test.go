package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		counts := make([]int32, n)
		For(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	For(4, -3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForContextCompletesWhenNotCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 50
		counts := make([]int32, n)
		err := ForContext(context.Background(), workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForContextCancelSkipsSuffix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		const n, cancelAt = 10000, 8
		// Cancellation is made observable rather than raced: the call that
		// cancels closes `cancelled` once cancel has returned, and every
		// call that started beside or after it waits for that. No call can
		// therefore finish — and let its worker fetch another index —
		// between the decision to cancel and ctx being done, however the
		// scheduler treats the cancelling goroutine.
		cancelled := make(chan struct{})
		err := ForContext(ctx, workers, n, func(i int) {
			switch c := ran.Add(1); {
			case c == cancelAt:
				cancel()
				close(cancelled)
			case c > cancelAt:
				<-cancelled
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight calls finish — at most one per other worker beside the
		// cancelling call — and the rest of the range is never run.
		if got, most := int(ran.Load()), cancelAt+workers-1; got < cancelAt || got > most {
			t.Fatalf("workers=%d: %d calls ran, want between %d and %d", workers, got, cancelAt, most)
		}
	}
}

func TestForContextPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForContext(ctx, 4, 100, func(int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The select may race one index per worker, but a pre-cancelled context
	// must not run the whole range.
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d calls ran with a pre-cancelled context", got)
	}
}

func TestForContextWaitsForInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var inFlight, finished atomic.Int32
	err := ForContext(ctx, 4, 64, func(i int) {
		inFlight.Add(1)
		cancel()
		time.Sleep(time.Millisecond)
		finished.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inFlight.Load() != finished.Load() {
		t.Fatalf("ForContext returned with %d of %d calls unfinished",
			inFlight.Load()-finished.Load(), inFlight.Load())
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(5); got != 5 {
		t.Fatalf("DefaultWorkers(5) = %d", got)
	}
	if got := DefaultWorkers(0); got < 1 {
		t.Fatalf("DefaultWorkers(0) = %d, want >= 1", got)
	}
	if got := DefaultWorkers(-1); got < 1 {
		t.Fatalf("DefaultWorkers(-1) = %d, want >= 1", got)
	}
}
