// Package trace defines the workload model used throughout HARMONY — tasks,
// jobs, and machine types — together with a synthetic trace generator that
// reproduces the statistical properties of the Google cluster trace analyzed
// in Section III of the paper (heterogeneous task sizes spanning orders of
// magnitude, bimodal durations, three priority groups, diurnal arrivals, and
// a skewed machine-type population).
//
// The real Google trace is proprietary and several gigabytes; the generator
// is the substitution documented in DESIGN.md. Every consumer in this module
// depends only on the distributional properties the generator reproduces.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// PriorityGroup is the coarse task classification used by the paper:
// gratis (priorities 0-1), other (2-8), and production (9-11).
type PriorityGroup int

// Priority groups in increasing order of importance.
const (
	Gratis PriorityGroup = iota + 1
	Other
	Production
)

// NumGroups is the number of priority groups.
const NumGroups = 3

// String returns the paper's name for the group.
func (g PriorityGroup) String() string {
	switch g {
	case Gratis:
		return "gratis"
	case Other:
		return "other"
	case Production:
		return "production"
	default:
		return fmt.Sprintf("PriorityGroup(%d)", int(g))
	}
}

// Index returns a dense 0-based index for array lookups.
func (g PriorityGroup) Index() int { return int(g) - 1 }

// GroupOf maps a raw priority (0-11) to its priority group.
func GroupOf(priority int) PriorityGroup {
	switch {
	case priority <= 1:
		return Gratis
	case priority <= 8:
		return Other
	default:
		return Production
	}
}

// Groups lists all priority groups in ascending order.
func Groups() []PriorityGroup { return []PriorityGroup{Gratis, Other, Production} }

// Task is a single schedulable unit. CPU and Mem are normalized to the
// largest machine in the cluster (capacity 1.0), exactly as in the trace.
type Task struct {
	ID    uint64 `json:"id"`
	JobID uint64 `json:"job"`
	//harmony:unit(s)
	Submit float64 `json:"submit"` // since trace start
	//harmony:unit(s)
	Duration   float64 `json:"duration"` // execution time once placed
	CPU        float64 `json:"cpu"`      // normalized CPU demand in (0,1]
	Mem        float64 `json:"mem"`      // normalized memory demand in (0,1]
	Priority   int     `json:"priority"` // 0..11
	SchedClass int     `json:"class"`    // 0 (batch) .. 3 (latency-sensitive)
	// Constraint, when non-empty, is a placement constraint: the task
	// may only run on machines of this platform (§III — the trace's
	// difficult-to-schedule tasks are often constrained).
	Constraint string `json:"constraint,omitempty"`
	// Tenant, when non-empty, names the application the task belongs to.
	// Multi-tenant harmonyd routes tagged NDJSON ingest by this field;
	// the batch pipeline and the simulator ignore it.
	Tenant string `json:"tenant,omitempty"`
}

// Group returns the task's priority group.
func (t Task) Group() PriorityGroup { return GroupOf(t.Priority) }

// MachineType describes one hardware generation in the cluster. Capacities
// are normalized so that the largest machine has CPU = Mem = 1.
type MachineType struct {
	ID       int     `json:"id"`
	Platform string  `json:"platform"` // micro-architecture identifier
	CPU      float64 `json:"cpu"`      // normalized CPU capacity
	Mem      float64 `json:"mem"`      // normalized memory capacity
	Count    int     `json:"count"`    // machines of this type in the cluster
}

// Fits reports whether a task with the given demands can run on this
// machine type at all (ignoring current load).
func (m MachineType) Fits(cpu, mem float64) bool {
	return cpu <= m.CPU && mem <= m.Mem
}

// Trace is a complete workload: a task stream sorted by submission time and
// the machine population it runs against.
type Trace struct {
	Tasks    []Task        `json:"tasks"`
	Machines []MachineType `json:"machines"`
	Horizon  float64       `json:"horizon"` // seconds covered by the trace
}

// TotalMachines returns the machine population size.
func (tr *Trace) TotalMachines() int {
	n := 0
	for _, m := range tr.Machines {
		n += m.Count
	}
	return n
}

// SortTasks sorts the task stream by submission time (stable on ID).
func (tr *Trace) SortTasks() {
	sort.SliceStable(tr.Tasks, func(i, j int) bool {
		//harmony:allow floateq sort tie-break must be exact for a deterministic order
		if tr.Tasks[i].Submit != tr.Tasks[j].Submit {
			return tr.Tasks[i].Submit < tr.Tasks[j].Submit
		}
		return tr.Tasks[i].ID < tr.Tasks[j].ID
	})
}

// Validate checks internal consistency: sorted, finite, non-negative
// submissions, finite positive durations, demands in (0,1], and a
// non-empty machine population. Every range check is written in positive
// form so that NaN, which fails every comparison, is rejected too.
func (tr *Trace) Validate() error {
	if len(tr.Machines) == 0 {
		return fmt.Errorf("trace: no machine types")
	}
	for _, m := range tr.Machines {
		if !inUnit(m.CPU) || !inUnit(m.Mem) {
			return fmt.Errorf("trace: machine type %d capacity out of (0,1]", m.ID)
		}
		if m.Count < 0 {
			return fmt.Errorf("trace: machine type %d negative count", m.ID)
		}
	}
	prev := -1.0
	for i, t := range tr.Tasks {
		if !(t.Submit >= 0 && t.Submit <= math.MaxFloat64) {
			return fmt.Errorf("trace: task %d submit not finite and non-negative", i)
		}
		if t.Submit < prev {
			return fmt.Errorf("trace: tasks not sorted at index %d", i)
		}
		prev = t.Submit
		if !(t.Duration > 0 && t.Duration <= math.MaxFloat64) {
			return fmt.Errorf("trace: task %d duration not finite and positive", i)
		}
		if !inUnit(t.CPU) || !inUnit(t.Mem) {
			return fmt.Errorf("trace: task %d demand out of (0,1]", i)
		}
		if t.Priority < 0 || t.Priority > 11 {
			return fmt.Errorf("trace: task %d priority out of [0,11]", i)
		}
		if t.SchedClass < 0 || t.SchedClass > 3 {
			return fmt.Errorf("trace: task %d sched class out of [0,3]", i)
		}
	}
	return nil
}

// inUnit reports whether v lies in (0,1]; NaN does not.
func inUnit(v float64) bool { return v > 0 && v <= 1 }
