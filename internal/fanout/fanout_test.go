package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once at any GOMAXPROCS, including more
// workers than items and no items at all.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			Each(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, got)
				}
			}
		}
	}
}

// Under GOMAXPROCS=1 the items run in index order on the caller.
func TestEachSerialOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var order []int
	Each(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d items, want 5", len(order))
	}
}
