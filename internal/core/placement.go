package core

import (
	"fmt"
	"math"

	"harmony/internal/binpack"
	"harmony/internal/fanout"
)

// typePacking is the CBS rounding result for one machine type. Machine
// types are a conflict-free partition of the placement problem: type m's
// packing reads only plan.Active[m]/plan.Alloc[m] and writes only the
// type-m decision slots, so the per-type packings can run on any number
// of workers and be merged in type order with a bit-identical result.
type typePacking struct {
	active   int
	packings []map[int]int
	quota    []int
	dropped  []int // indexed by container type
	err      error
}

// packTypeShift is how many bits of a binpack item ID hold the per-type
// item counter; the low bits hold the container type. The counter side is
// effectively unbounded (47 spare bits on 64-bit platforms), but the
// container-type side caps the catalog size.
const packTypeShift = 16

// maxPackContainerTypes is the largest container catalog the id<<shift|n
// item encoding can represent. Beyond it the decode (ID & mask) would
// silently fold high type indices onto low ones and mis-merge counts, so
// packType refuses such catalogs with an explicit error instead.
const maxPackContainerTypes = 1 << packTypeShift

// packBudget is the integer machine budget First-Fit may use for machine
// type m in period 0: ⌈z*⌉ plus Lemma 1's one-machine allowance, capped
// at the machines that exist. The delta path diffs consecutive plans on
// this same integerized value, so budget drift is always detected.
//
//harmony:hotpath
func (c *Controller) packBudget(plan *Plan, m int) int {
	zStar := plan.Active[m][0]
	budget := int(math.Ceil(zStar - 1e-9))
	if zStar > 1e-9 {
		budget++ // Lemma 1's z*+1 allowance
	}
	if budget > c.Machines[m].Available {
		budget = c.Machines[m].Available
	}
	return budget
}

// itemCount is the integer number of type-n containers the plan allocates
// to machine type m in period 0: floor of the fractional allocation (the
// plan already respects capacity).
//
//harmony:hotpath
func itemCount(plan *Plan, m, n int) int {
	return int(math.Floor(plan.Alloc[m][n][0] + 1e-9))
}

// quotaCap is the per-type container cap the decision reports for machine
// type m: the plan's ceiling (Algorithm 1 lets the scheduler keep placing
// as long as the total stays within x^{mn}), not the packed counts, which
// floor-rounding would understate.
//
//harmony:hotpath
func quotaCap(plan *Plan, m, n int) int {
	return int(math.Ceil(plan.Alloc[m][n][0] - 1e-9))
}

// packType rounds period 0 of the plan for machine type m with First-Fit
// (Algorithm 1): at most ⌈z*⌉+1 machines are used, and by Lemma 1 at
// least x*/(2|R|) containers of each type fit.
func (c *Controller) packType(plan *Plan, m int) typePacking {
	ms := c.Machines[m]
	p := typePacking{quota: make([]int, len(c.Containers))}
	if len(c.Containers) > maxPackContainerTypes {
		p.err = fmt.Errorf("core: CBS rounding type %d: %d container types exceed the %d-type item-encoding limit",
			ms.Type, len(c.Containers), maxPackContainerTypes)
		return p
	}
	budget := c.packBudget(plan, m)
	if budget == 0 {
		// No machines to pack onto, but the plan may still have allocated
		// containers here (e.g. a type whose Available hit zero): those
		// containers vanish, so count every one of them as dropped, and
		// report the plan's caps as quotas like the packed path does.
		for n := range c.Containers {
			if count := itemCount(plan, m, n); count > 0 {
				if p.dropped == nil {
					p.dropped = make([]int, len(c.Containers))
				}
				p.dropped[n] = count
			}
			p.quota[n] = quotaCap(plan, m, n)
		}
		return p
	}

	// Integer container counts for this machine type.
	var items []binpack.Item
	id := 0
	for n, cs := range c.Containers {
		count := itemCount(plan, m, n)
		om := cs.Omega
		if om < 1 {
			om = 1
		}
		for k := 0; k < count; k++ {
			items = append(items, binpack.Item{
				ID:      id<<packTypeShift | n,
				Demands: []float64{om * cs.CPU, om * cs.Mem},
			})
			id++
		}
	}
	capacity := []float64{ms.CPU, ms.Mem}
	bins, unplaced, err := binpack.FirstFitBounded(items, capacity, budget)
	if err != nil {
		p.err = fmt.Errorf("core: CBS rounding type %d: %w", ms.Type, err)
		return p
	}
	p.active = len(bins)
	p.packings = make([]map[int]int, len(bins))
	for bi, bin := range bins {
		pack := make(map[int]int)
		for _, it := range bin.Items {
			n := it.ID & (maxPackContainerTypes - 1)
			pack[n]++
		}
		p.packings[bi] = pack
	}
	if len(unplaced) > 0 {
		p.dropped = make([]int, len(c.Containers))
		for _, it := range unplaced {
			p.dropped[it.ID&(maxPackContainerTypes-1)]++
		}
	}
	for n := range c.Containers {
		p.quota[n] = quotaCap(plan, m, n)
	}
	return p
}

// packInto packs the listed machine types into their slots of parts,
// fanning the per-type packings out across workers (fanout.Each): each
// result lands in its own pre-sized slot and the caller merges slots in
// type order, so the decision is bit-identical to the serial pass at any
// GOMAXPROCS.
func (c *Controller) packInto(plan *Plan, types []int, parts []typePacking) {
	fanout.Each(len(types), func(i int) {
		m := types[i]
		parts[m] = c.packType(plan, m)
	})
}

// roundCBS realizes period 0 with First-Fit packing per machine type,
// repacking every type from scratch. The delta path (roundCBSDelta)
// shortcuts this for types whose plan projection is unchanged; roundCBS
// stays the reference (and the fallback) the delta must be bit-identical
// to.
func (c *Controller) roundCBS(plan *Plan) (*Decision, error) {
	nm := len(c.Machines)
	parts := make([]typePacking, nm)
	types := make([]int, nm)
	for m := range types {
		types[m] = m
	}
	c.packInto(plan, types, parts)

	d := &Decision{
		ActiveMachines: make([]int, nm),
		Quota:          make([][]int, nm),
		Packings:       make([][]map[int]int, nm),
		Dropped:        make([]int, len(c.Containers)),
		Plan:           plan,
	}
	if err := mergeParts(d, parts); err != nil {
		return nil, err
	}
	return d, nil
}

// mergeParts folds the per-type packings into the decision in type
// order, so the result (and the reported error, always the lowest-type
// failure) is bit-identical to the serial pass regardless of worker
// completion order. The merge writes only into pre-sized storage.
//
//harmony:hotpath
func mergeParts(d *Decision, parts []typePacking) error {
	for m := range parts {
		p := &parts[m]
		if p.err != nil {
			return p.err
		}
		d.ActiveMachines[m] = p.active
		d.Quota[m] = p.quota
		d.Packings[m] = p.packings
		for n, cnt := range p.dropped {
			d.Dropped[n] += cnt
		}
	}
	return nil
}
