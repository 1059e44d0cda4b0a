// Package fanout runs independent, indexed work items across the
// available CPUs with a result that does not depend on how many there
// are. It is the one deterministic-reduce recipe shared by sim's sharded
// machine audit, core's per-type placement, and k-means restarts and
// per-group characterization.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls work(i) once for every i in [0, n) and returns when all
// calls have finished. Indices are claimed from an atomic counter by at
// most GOMAXPROCS workers; under GOMAXPROCS=1 (or n ≤ 1) they run in
// index order on the calling goroutine.
//
// work(i) must write only to state that index i owns — typically slot i
// of a pre-sized slice — and read nothing another index writes. The
// caller then merges the slots in index order, so the outcome is
// bit-identical however many workers ran and in whatever order they
// finished.
func Each(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
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
				work(i)
			}
		}()
	}
	wg.Wait()
}
