// Package classify implements HARMONY's task characterization (Section V):
// a two-step clustering that first groups tasks by static features
// (priority group, CPU and memory demand) and then splits each class into
// short/long duration sub-classes, plus the online labeler that assigns
// arriving tasks to classes by nearest centroid and upgrades short labels
// to long as observed runtime crosses the class boundary.
package classify

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/fanout"
	"harmony/internal/kmeans"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// SubClass is a duration sub-class within a task class (step two of the
// characterization). Classes have at most two sub-classes: short and long.
type SubClass struct {
	MeanDuration float64 // mean task duration (seconds)
	SqCV         float64 // squared coefficient of variation of durations
	MaxDuration  float64 // largest member duration (the relabel boundary for short)
	Count        int
}

// QuantileProbs are the fixed probabilities at which per-class demand
// quantiles are recorded; container sizing picks from these to bound
// per-task coverage when class demand is too skewed for the Gaussian
// model (the paper's non-Gaussian generalization via concentration
// bounds, Section VII-A).
var QuantileProbs = [4]float64{0.80, 0.90, 0.95, 0.99}

// Class is one task class produced by step one: tasks of a single priority
// group with similar CPU/memory demand. CPU/Mem are the arithmetic-space
// centroid; the Std fields feed container sizing (Eq. 3).
type Class struct {
	ID     int
	Group  trace.PriorityGroup
	CPU    float64
	Mem    float64
	CPUStd float64
	MemStd float64
	Count  int

	// CPUQuantiles/MemQuantiles hold the class demand quantiles at
	// QuantileProbs.
	CPUQuantiles [4]float64
	MemQuantiles [4]float64

	// Sub holds the duration sub-classes sorted by mean duration
	// (short first). A class whose durations do not split keeps one.
	Sub []SubClass

	// logCentroid is the step-one centroid in log space, used for
	// nearest-centroid labeling.
	logCentroid kmeans.Point
}

// ShortSub returns the short-duration sub-class (index 0).
func (c *Class) ShortSub() SubClass { return c.Sub[0] }

// LongSub returns the long-duration sub-class and whether one exists.
func (c *Class) LongSub() (SubClass, bool) {
	if len(c.Sub) < 2 {
		return SubClass{}, false
	}
	return c.Sub[1], true
}

// Config controls characterization.
type Config struct {
	MaxK     int     // maximum classes per priority group (default 8)
	MinGain  float64 // elbow threshold for ChooseK (default 0.15)
	Seed     int64
	Restarts int // k-means restarts (default 4)
}

func (cfg *Config) defaults() {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 8
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = 0.15
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 4
	}
}

// Characterization is the complete two-step clustering of a workload.
type Characterization struct {
	Classes []Class
	// byGroup indexes Classes by priority group for labeling.
	byGroup [trace.NumGroups][]int
}

// ErrNoTasks is returned when the input trace has no tasks.
var ErrNoTasks = errors.New("classify: no tasks")

// Characterize runs the two-step clustering over the tasks of tr.
//
// Step one clusters each priority group on (log CPU, log Mem); the log
// transform is essential because task sizes span orders of magnitude
// (Section III-D) and arithmetic-space K-means would be dominated by the
// few largest tasks. Step two runs k=2 K-means on log duration within each
// class, yielding the short/long split the online labeler relies on.
func Characterize(tr *trace.Trace, cfg Config) (*Characterization, error) {
	cfg.defaults()
	if len(tr.Tasks) == 0 {
		return nil, ErrNoTasks
	}

	// Each group's step one and step two are independent of the other
	// groups', so they run concurrently into per-group slots; class IDs
	// are then assigned as the classes are appended in group order,
	// exactly as a serial pass would.
	groups := trace.Groups()
	pts := make([][]kmeans.Point, len(groups))
	tasks := make([][]*trace.Task, len(groups))
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		g := t.Group().Index()
		pts[g] = append(pts[g], kmeans.Point{math.Log(t.CPU), math.Log(t.Mem)})
		tasks[g] = append(tasks[g], t)
	}
	classes := make([][]Class, len(groups))
	errs := make([]error, len(groups))
	fanout.Each(len(groups), func(gi int) {
		if len(pts[gi]) == 0 {
			return
		}
		maxK := cfg.MaxK
		if maxK > len(pts[gi]) {
			maxK = len(pts[gi])
		}
		_, res, err := kmeans.ChooseK(pts[gi], maxK, cfg.MinGain, kmeans.Config{
			Seed:     cfg.Seed + int64(groups[gi]),
			Restarts: cfg.Restarts,
		})
		if err != nil {
			errs[gi] = fmt.Errorf("step one for %v: %w", groups[gi], err)
			return
		}
		classes[gi], errs[gi] = groupClasses(groups[gi], res, tasks[gi], cfg)
	})

	ch := &Characterization{}
	for gi, g := range groups {
		if errs[gi] != nil {
			return nil, fmt.Errorf("classify: %w", errs[gi])
		}
		for _, cls := range classes[gi] {
			cls.ID = len(ch.Classes)
			ch.byGroup[g.Index()] = append(ch.byGroup[g.Index()], cls.ID)
			ch.Classes = append(ch.Classes, cls)
		}
	}
	if len(ch.Classes) == 0 {
		return nil, ErrNoTasks
	}
	return ch, nil
}

// groupClasses turns one group's step-one clustering into its classes,
// in cluster order and without IDs: per-class demand statistics and
// quantiles, and the step-two short/long split of each class's durations.
func groupClasses(
	g trace.PriorityGroup,
	res *kmeans.Result,
	tasks []*trace.Task,
	cfg Config,
) ([]Class, error) {
	k := len(res.Centroids)
	members := make([][]*trace.Task, k)
	for i, t := range tasks {
		c := res.Assignment[i]
		members[c] = append(members[c], t)
	}
	probs := make([]float64, len(QuantileProbs))
	for qi, prob := range QuantileProbs {
		probs[qi] = prob * 100
	}
	var out []Class
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			continue
		}
		cpus := make([]float64, len(members[c]))
		mems := make([]float64, len(members[c]))
		durs := make([]float64, len(members[c]))
		for i, t := range members[c] {
			cpus[i] = t.CPU
			mems[i] = t.Mem
			durs[i] = t.Duration
		}
		cls := Class{
			Group:       g,
			CPU:         stats.Mean(cpus),
			Mem:         stats.Mean(mems),
			CPUStd:      stats.StdDev(cpus),
			MemStd:      stats.StdDev(mems),
			Count:       len(members[c]),
			logCentroid: res.Centroids[c],
		}
		cq, err := stats.Percentiles(cpus, probs)
		if err != nil {
			return nil, err
		}
		mq, err := stats.Percentiles(mems, probs)
		if err != nil {
			return nil, err
		}
		copy(cls.CPUQuantiles[:], cq)
		copy(cls.MemQuantiles[:], mq)
		cls.Sub = splitDurations(durs, cfg)
		out = append(out, cls)
	}
	return out, nil
}

// splitDurations runs step two: k=2 clustering on log duration, returning
// sub-classes sorted short-first. When the class is too small or durations
// are homogeneous, a single sub-class is returned.
func splitDurations(durs []float64, cfg Config) []SubClass {
	if len(durs) < 4 {
		return []SubClass{subClassOf(durs)}
	}
	pts := make([]kmeans.Point, len(durs))
	for i, d := range durs {
		pts[i] = kmeans.Point{math.Log(d)}
	}
	res, err := kmeans.Run(pts, kmeans.Config{K: 2, Seed: cfg.Seed, Restarts: cfg.Restarts})
	if err != nil {
		return []SubClass{subClassOf(durs)}
	}
	var a, b []float64
	for i, d := range durs {
		if res.Assignment[i] == 0 {
			a = append(a, d)
		} else {
			b = append(b, d)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return []SubClass{subClassOf(durs)}
	}
	sa, sb := subClassOf(a), subClassOf(b)
	if sa.MeanDuration > sb.MeanDuration {
		sa, sb = sb, sa
	}
	// A split that does not separate scales is not useful; require the
	// long mean to be at least 3x the short mean.
	if sb.MeanDuration < 3*sa.MeanDuration {
		return []SubClass{subClassOf(durs)}
	}
	return []SubClass{sa, sb}
}

func subClassOf(durs []float64) SubClass {
	//harmony:allow errflow Max only errors on an empty slice; callers split non-empty duration sets
	mx, _ := stats.Max(durs)
	return SubClass{
		MeanDuration: stats.Mean(durs),
		SqCV:         stats.SquaredCV(durs),
		MaxDuration:  mx,
		Count:        len(durs),
	}
}

// ClassesOf returns the classes belonging to a priority group.
func (ch *Characterization) ClassesOf(g trace.PriorityGroup) []*Class {
	ids := ch.byGroup[g.Index()]
	out := make([]*Class, len(ids))
	for i, id := range ids {
		out[i] = &ch.Classes[id]
	}
	return out
}

// Label assigns a task to its nearest class (Euclidean distance in
// (log CPU, log Mem) space, restricted to the task's priority group) and
// returns the class ID. It returns -1 when the group has no classes.
func (ch *Characterization) Label(t trace.Task) int {
	ids := ch.byGroup[t.Group().Index()]
	if len(ids) == 0 {
		return -1
	}
	p := kmeans.Point{math.Log(t.CPU), math.Log(t.Mem)}
	best, bestD := -1, math.Inf(1)
	for _, id := range ids {
		c := &ch.Classes[id]
		d := 0.0
		for j := range p {
			diff := p[j] - c.logCentroid[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// TypeID identifies a (class, sub-class) pair — the unit the container
// manager provisions for. Sub 0 is short, 1 is long.
type TypeID struct {
	Class int
	Sub   int
}

// Labeler performs online task classification with the paper's
// label-short-first policy: a task is initially labeled with its class's
// short sub-class; once its observed running (or waiting) time exceeds the
// short sub-class's maximum duration it is relabeled long. Because most
// tasks are short, the initial mislabeling of long tasks is rare and
// short-lived (Section V).
type Labeler struct {
	ch *Characterization
}

// NewLabeler returns a Labeler over a characterization.
func NewLabeler(ch *Characterization) *Labeler {
	return &Labeler{ch: ch}
}

// Initial labels a newly arrived task: nearest class, short sub-class.
// ok is false when the task's group has no classes.
func (l *Labeler) Initial(t trace.Task) (TypeID, bool) {
	cls := l.ch.Label(t)
	if cls < 0 {
		return TypeID{}, false
	}
	return TypeID{Class: cls, Sub: 0}, true
}

// Refresh re-evaluates a task's label given its observed age (seconds since
// it started running). It upgrades short to long when the age exceeds the
// short sub-class boundary and the class has a long sub-class.
func (l *Labeler) Refresh(id TypeID, age float64) TypeID {
	if id.Class < 0 || id.Class >= len(l.ch.Classes) {
		return id
	}
	c := &l.ch.Classes[id.Class]
	if id.Sub != 0 || len(c.Sub) < 2 {
		return id
	}
	if age > c.Sub[0].MaxDuration {
		id.Sub = 1
	}
	return id
}

// TaskType describes one provisionable task type (class × sub-class) with
// the statistics the queueing model needs.
type TaskType struct {
	ID           TypeID
	Group        trace.PriorityGroup
	CPU, Mem     float64 // centroid demand
	CPUStd       float64
	MemStd       float64
	CPUQuantiles [4]float64 // demand quantiles at QuantileProbs
	MemQuantiles [4]float64
	MeanDuration float64
	SqCV         float64
	Count        int
}

// TaskTypes flattens the characterization into the list of provisionable
// task types.
func (ch *Characterization) TaskTypes() []TaskType {
	var out []TaskType
	for i := range ch.Classes {
		c := &ch.Classes[i]
		for s, sub := range c.Sub {
			out = append(out, TaskType{
				ID:           TypeID{Class: c.ID, Sub: s},
				Group:        c.Group,
				CPU:          c.CPU,
				Mem:          c.Mem,
				CPUStd:       c.CPUStd,
				MemStd:       c.MemStd,
				CPUQuantiles: c.CPUQuantiles,
				MemQuantiles: c.MemQuantiles,
				MeanDuration: sub.MeanDuration,
				SqCV:         sub.SqCV,
				Count:        sub.Count,
			})
		}
	}
	return out
}
