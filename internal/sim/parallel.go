package sim

import "harmony/internal/fanout"

// refreshAccounting replaces the incrementally tracked used-machine
// count and the per-(type, shard) free-capacity pruning bounds with
// exact values from a full machine scan. The bounds only ever drift
// loose between refreshes, so tightening them here cannot change
// placement decisions — a pruned shard is one where every powered
// machine provably cannot fit the task — but it lets placeInType skip
// whole shards without scanning.
//
// The scan is a sharded parallel reduce over the auditItems built at
// engine construction: each (machine type, shard) granule is an
// independent work item that writes the exact free-capacity maxima into
// the bound slots it exclusively owns, plus a used-count partial into
// its own auditUsed slot. Nothing is merged across workers, and shard
// boundaries depend only on the machine population — never on
// GOMAXPROCS — so the result is bit-for-bit identical however many
// workers ran it (fanout.Each).
func (e *engine) refreshAccounting() {
	items := e.auditItems
	fanout.Each(len(items), func(k int) {
		it := &items[k]
		mt := e.types[it.ti]
		var maxCPU, maxMem float64
		used := 0
		for mi := it.lo; mi < it.hi; mi++ {
			m := &e.machines[mi]
			if m.tasks > 0 {
				used++
			}
			if !m.on {
				continue
			}
			// Booting machines count: the free-capacity bounds must
			// stay upper bounds over everything placeInType scans.
			if f := mt.CPU - m.usedCPU; f > maxCPU {
				maxCPU = f
			}
			if f := mt.Mem - m.usedMem; f > maxMem {
				maxMem = f
			}
		}
		e.freeCPUBound[it.ti][it.shard] = maxCPU
		e.freeMemBound[it.ti][it.shard] = maxMem
		e.auditUsed[k] = used
	})

	used := 0
	for _, u := range e.auditUsed {
		used += u
	}
	e.usedCount = used
}
