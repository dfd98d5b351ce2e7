package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(0) … fn(n-1) on a bounded pool of worker
// goroutines (at most GOMAXPROCS) and returns when all calls have
// finished. Callers keep determinism by having each index write only
// its own result slot and then merging in index order after
// ParallelFor returns — goroutine scheduling decides nothing
// observable. The pool layer boots instance batches with it. A call
// must not wait on another index: at one P the calls run one after
// another, so host and shard loops that read a bounded feed run on
// goroutines of their own instead.
//
// Indices are claimed from a shared counter, so unequal work per index
// load-balances instead of convoying behind a static partition.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
