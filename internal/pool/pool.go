// Package pool provides the bounded worker pools behind every parallel
// loop in the repository. For and ForContext give a call site its own
// worker count: the offline build path (pairwise MCS matrices, gSpan
// root-pattern mining, per-graph vector mapping) and the stand-alone
// index's batch queries use them. A Budget is one pot of workers shared
// by concurrent loops: a store's shard fan-out draws from it, so the
// fan-out stays bounded however many requests are in flight. Keeping the
// fan-out logic in one place makes the concurrency model auditable.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers resolves a Workers option: values <= 0 mean "one worker
// per CPU" (GOMAXPROCS, which respects cgroup and runtime limits).
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines.
// workers <= 1 degenerates to a plain sequential loop on the calling
// goroutine — zero overhead and trivially deterministic, which is what
// makes Workers: 1 a meaningful determinism baseline. fn must be safe to
// call concurrently for distinct i; For returns only after every call has
// finished.
func For(workers, n int, fn func(i int)) {
	// context.Background() is never cancelled, so the error is always nil.
	_ = ForContext(context.Background(), workers, n, fn)
}

// ForContext is For with cancellation: it stops handing out new indices
// once ctx is done and returns ctx.Err(). In-flight fn calls always run to
// completion — ForContext returns only after every started call has
// finished, so callers may free or reuse shared state as soon as it
// returns. A nil return guarantees fn ran for every i in [0, n);
// a non-nil return means some suffix of the range was skipped.
func ForContext(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	// Atomic-free striding would unbalance irregular work (MCS searches
	// vary by orders of magnitude per pair), so hand out indices through a
	// channel: cheap at this granularity and naturally work-stealing.
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case i, ok := <-idx:
					if !ok {
						return
					}
					// select chooses randomly when both channels are
					// ready; re-check done so cancellation wins
					// deterministically once observed.
					select {
					case <-done:
						return
					default:
					}
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
