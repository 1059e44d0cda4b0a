package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one printed figure. The end-to-end set is printed by
// untraced runs (-trace 0), the per-layer set by traced runs (-trace 1);
// both must match BENCHMARK.json exactly, direction included.
type metricDef struct {
	name, unit, better string
}

// Directions. Throughput and counts of work that succeeded are better
// higher; times, memory, failures and counts of work done (pivots,
// evaluations, label calls, task types) are better lower.
const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower},
}

// perLayer opens with the "e2e" group: the user-visible figures that
// vary too much between seeds to carry a bound (README.md), measured on
// the untraced runs of a traced invocation.
var perLayer = []metricDef{
	{"e2e.peak_rss_mb", "MB", lower},
	{"e2e.tasks_per_s", "1/s", higher},
	{"e2e.tick_p50_ms", "ms", lower},
	{"e2e.tick_p90_ms", "ms", lower},
	{"e2e.ingest_p50_ms", "ms", lower},
	{"e2e.ingest_p99_ms", "ms", lower},
	{"e2e.late_tick_frac", "1", lower},
	{"e2e.failed_frac", "1", lower},
	{"e2e.energy_kwh", "kWh", lower},
	{"e2e.cost_usd", "USD", lower},
	{"e2e.prod_delay_mean_s", "s", lower},
	{"e2e.unscheduled_frac", "1", lower},
	{"trace.gen_s", "s", lower},
	{"trace.gen_tasks_per_s", "1/s", higher},
	{"classify.characterize_s", "s", lower},
	{"classify.task_types", "count", lower},
	{"classify.label_calls", "count", lower},
	{"classify.label_ns_per_call", "ns", lower},
	{"sched.ticks", "count", higher},
	{"sched.tick_errors", "count", lower},
	{"sched.tick_ms_p50", "ms", lower},
	{"sched.tick_ms_p90", "ms", lower},
	{"sched.tick_ms_max", "ms", lower},
	{"sched.tick_total_s", "s", lower},
	{"forecast.fits", "count", higher},
	{"forecast.fallbacks", "count", lower},
	{"forecast.fit_ms_p50", "ms", lower},
	{"forecast.fit_total_s", "s", lower},
	{"queueing.wait_evals", "count", lower},
	{"queueing.wait_evals_per_tick_p50", "count", lower},
	{"lp.pivots_total", "count", lower},
	{"lp.pivots_per_tick_p50", "count", lower},
	{"lp.pivots_per_tick_p90", "count", lower},
	{"lp.warm_solve_ms_p50", "ms", lower},
	{"lp.warm_solve_ms_p90", "ms", lower},
	{"lp.cold_solve_ms_p50", "ms", lower},
	{"lp.cold_solve_ms_p90", "ms", lower},
	{"lp.warm_cold_plan_mismatch", "count", lower},
	{"core.realize_delta_ms_p50", "ms", lower},
	{"core.realize_full_ms_p50", "ms", lower},
	{"core.delta_reused_types", "count", higher},
	{"core.delta_repacked_types", "count", lower},
	{"core.delta_fallbacks", "count", lower},
	{"core.dropped_containers", "count", lower},
	{"sim.run_s", "s", lower},
	{"sim.self_s", "s", lower},
	{"sim.self_ns_per_task", "ns", lower},
	{"sim.alloc_bytes_per_task", "B", lower},
	{"daemon.tick_overhead_ms_p50", "ms", lower},
	{"daemon.plan_energy_kwh", "kWh", lower},
	{"daemon.plan_cost_usd", "USD", lower},
	{"daemon.ingested", "count", higher},
	{"daemon.rejected_429", "count", lower},
	{"daemon.label_fallbacks", "count", lower},
	{"daemon.relabels", "count", lower},
	{"daemon.ticks_skipped", "count", lower},
	{"daemon.ticks_late", "count", lower},
	{"loadgen.lag_ms_p99", "ms", lower},
	{"loadgen.lag_ms_max", "ms", lower},
	{"bench.tracing_overhead_frac", "1", lower},
}

// metricValue is one printed figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's figures and the reasons it is not correct.
// Values are keyed by metric name; units come from the declarations.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness failures: any one makes the run incorrect
	notes     []string // figures that could not be measured, and why
	tr        *tracer  // the traced run's spans
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result renders the declared set (end-to-end or per-layer). Per-layer
// figures a workload does not exercise print as 0; a missing end-to-end
// figure, or any figure that is not finite, makes the run incorrect.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		switch {
		case !ok && !traced:
			r.fail("end-to-end metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is not finite", d.name)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !declared(defs, name) {
			r.fail("metric %s is measured but not declared", name)
		}
	}
	if out.Attempted < 1 {
		r.fail("no operation was attempted")
		out.Attempted = 1
	}
	out.Correct = len(r.problems) == 0
	return out
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// benchmarkFile is the part of BENCHMARK.json the benchmark checks
// itself against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// checkDeclarations compares the metric tables above with BENCHMARK.json
// at the checkout root, so a figure can never be printed under a name or
// unit the benchmark does not declare.
func checkDeclarations(root string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if err := sameDefs("end_to_end", endToEnd, bf.EndToEnd); err != nil {
		return err
	}
	if err := sameDefs("per_layer", perLayer, bf.PerLayer); err != nil {
		return err
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := workloadNames()
	if fmt.Sprint(names) != fmt.Sprint(want) {
		return fmt.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	return nil
}

func sameDefs(section string, defs []metricDef, file []declaredMetric) error {
	if len(defs) != len(file) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, benchmark prints %d", section, len(file), len(defs))
	}
	for i, d := range defs {
		if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s, %s is better), benchmark prints %s (%s, %s is better)",
				section, i, f.Name, f.Unit, f.Better, d.name, d.unit, d.better)
		}
	}
	return nil
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false when fewer than minBeyond samples lie above that rank: such a
// percentile is noise and must not be reported. An empty input yields
// (0, true) — a layer the workload never reached.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, true
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// setPct records a percentile of xs under name, or fails the run when
// the sample count cannot support it.
func (r *report) setPct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		r.fail("%s: %d samples cannot support p%g (need %d beyond it)", name, len(xs), p*100, minBeyond)
	}
	r.set(name, v)
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
