package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/daemon"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true}, {144, 0.9, true}, {144, 0.99, false},
		{999, 0.99, false}, {1000, 0.99, true}, {1040, 0.99, true},
	} {
		if _, ok := percentile(make([]float64, tc.n), tc.p); ok != tc.ok {
			t.Errorf("p%g over %d samples: ok %v, want %v", tc.p*100, tc.n, ok, tc.ok)
		}
	}

	xs := make([]float64, 144)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if v, ok := percentile(xs, 0.9); v != 130 || !ok {
		t.Errorf("p90 of 1..144 = %v (ok %v), want 130 with 14 beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.5); v != 72 || !ok {
		t.Errorf("p50 of 1..144 = %v (ok %v), want 72", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 144 samples has 1 sample beyond it and must be refused")
	}
	if v, ok := percentile(nil, 0.9); v != 0 || !ok {
		t.Errorf("empty input = %v (ok %v), want 0 for a bypassed layer", v, ok)
	}

	rep := newReport()
	rep.setPct("tick_p90_ms", xs[:50], 0.9)
	if len(rep.problems) != 1 {
		t.Errorf("p90 over 50 samples must fail the run, problems %v", rep.problems)
	}
}

func TestCountFailures(t *testing.T) {
	ok := exchange{status: 202}
	ingest := []exchange{ok, ok, {status: 429}, {err: errors.New("connection reset")}}
	ticks := []exchange{{status: 200}, {status: 409}, {status: 504}, {status: 500}, {status: 200}}
	attempted, failed := countFailures(ingest, ticks)
	if attempted != 9 || failed != 5 {
		t.Errorf("attempted %d failed %d, want 9 and 5 (429, transport error, 409, 504, 500)", attempted, failed)
	}
}

func TestExchangeLagExcludesWaitsTheGeneratorMustHonor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	x := exchange{due: t0, ready: t0.Add(30 * time.Millisecond), sent: t0.Add(31 * time.Millisecond),
		done: t0.Add(40 * time.Millisecond)}
	if x.lag() != time.Millisecond {
		t.Errorf("lag %v, want 1ms past the connection becoming free", x.lag())
	}
	if x.latency() != 40*time.Millisecond {
		t.Errorf("latency %v, want 40ms from the due time", x.latency())
	}
	x.ready = t0.Add(-time.Second)
	if x.lag() != 31*time.Millisecond {
		t.Errorf("lag %v, want 31ms past the due time", x.lag())
	}

	// A batch held until the previous tick answered is timed from the
	// end of that wait.
	x.held = t0.Add(25 * time.Millisecond)
	if x.latency() != 15*time.Millisecond {
		t.Errorf("held batch latency %v, want 15ms past the hold", x.latency())
	}
	x.held = t0.Add(-time.Second)
	if x.latency() != 40*time.Millisecond {
		t.Errorf("latency %v, want 40ms: a hold that ended before the due time changes nothing", x.latency())
	}
}

// TestMetricDirections pins what "better" means: throughput is better
// higher, and every time, memory and failure figure is better lower.
func TestMetricDirections(t *testing.T) {
	successCounts := map[string]bool{"sched.ticks": true, "daemon.ingested": true,
		"forecast.fits": true, "core.delta_reused_types": true}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want := lower
		if d.unit == "1/s" || successCounts[d.name] {
			want = higher
		}
		if d.better != want {
			t.Errorf("%s (%s): %s is better, want %s", d.name, d.unit, d.better, want)
		}
	}
	for _, n := range []string{"e2e.tasks_per_s", "trace.gen_tasks_per_s"} {
		if !declared(perLayer, n) {
			t.Errorf("throughput figure %s is not declared", n)
		}
	}
}

func TestTickPolicyCountsFailures(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	script := []struct {
		decide bool
		err    error
	}{{true, nil}, {false, nil}, {true, errA}, {true, errA}, {true, errB}, {true, nil}}
	i := 0
	p := &tickPolicy{
		inner: policyFunc(func(*sim.Observation) sim.Directive {
			if script[i].decide {
				return sim.Directive{TargetActive: []int{1}}
			}
			return sim.Directive{}
		}),
		errOf: func() error { return script[i].err },
	}
	for i = range script {
		p.Period(&sim.Observation{})
	}
	// Tick 1 decided nothing; ticks 2 and 4 raised a new error; tick 3
	// repeated the old one.
	if len(p.ms) != 6 || p.failed != 3 {
		t.Errorf("timed %d ticks, %d failed; want 6 and 3", len(p.ms), p.failed)
	}
}

type policyFunc func(*sim.Observation) sim.Directive

func (f policyFunc) Name() string                            { return "script" }
func (f policyFunc) Period(o *sim.Observation) sim.Directive { return f(o) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // overruns root: clipped
		{ID: 5, Parent: 2, Name: "a.x", Start: 10, End: 40}, // covers a entirely
		{ID: 6, Parent: 2, Name: "a.y", Start: 15, End: 20}, // inside a.x
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 0, 3: 20, 4: 30, 5: 30, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}

	rep := newReport()
	checkSpans(rep, spans)
	if len(rep.problems) != 1 {
		t.Errorf("span 4 overruns its parent and must fail the run, problems %v", rep.problems)
	}
	rep = newReport()
	checkSpans(rep, []span{{ID: 1, Start: 5, End: 0}})
	if len(rep.problems) != 1 {
		t.Errorf("an unended span must fail the run, problems %v", rep.problems)
	}
}

func TestReportRequiresEveryEndToEndMetric(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	for _, d := range endToEnd[1:] {
		rep.set(d.name, 1)
	}
	rep.set("undeclared", 1)
	res := rep.result(false)
	if res.Correct || len(rep.problems) != 2 {
		t.Errorf("missing %s and an undeclared metric must both fail, problems %v", endToEnd[0].name, rep.problems)
	}
	rep = newReport()
	rep.attempted = 1
	rep.set("sim.run_s", math.NaN())
	if rep.result(true).Correct {
		t.Error("a NaN figure must fail the run")
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric tables and
// against the limits its format sets.
func TestBenchmarkJSON(t *testing.T) {
	if err := checkDeclarations(".."); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	check := func(n, u, better string) {
		checkName(n)
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "e2ebench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	if n := 4 + 22*len(bf.Workloads); n*bf.RunSeconds > 3420 {
		t.Errorf("%d runs of %ds cannot fit the run budget", n, bf.RunSeconds)
	}
}

func TestScheduleKeepsPeriodsInOrder(t *testing.T) {
	var tasks []trace.Task
	for i := 0; i < 600; i++ {
		tasks = append(tasks, trace.Task{ID: uint64(i), Submit: float64(i) * 1.5})
	}
	s, err := buildSchedule(tasks, 3, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 200 tasks per 300 s period, two batches each.
	if s.tasks != 600 || len(s.bodies) != 6 || len(s.tickDue) != 3 {
		t.Fatalf("%d tasks in %d batches and %d ticks", s.tasks, len(s.bodies), len(s.tickDue))
	}
	for j := range s.bodies {
		k := s.batchSlot[j]
		if s.batchDue[j] < time.Duration(k)*s.slot || s.batchDue[j] >= s.tickDue[k] {
			t.Errorf("batch %d due %v outside slot %d", j, s.batchDue[j], k)
		}
	}
	if s.lastBatch[0] != 1 || s.lastBatch[1] != 3 || s.lastBatch[2] != 5 {
		t.Errorf("last batches %v", s.lastBatch)
	}
	if _, err := buildSchedule(tasks, 2, time.Second); err == nil {
		t.Error("tasks after the last tick must be refused")
	}
}

func TestPlanEnergy(t *testing.T) {
	_, models := tableII(daemonScale)
	plan := func(active ...int) *daemon.Plan {
		p := &daemon.Plan{}
		for _, a := range active {
			p.Machines = append(p.Machines, daemon.MachinePlan{Active: a})
		}
		return p
	}
	kwh, usd := planEnergy([]*daemon.Plan{plan(2, 0, 0, 1), nil, plan(1, 0, 0, 1)})
	idle := func(m, n int) float64 { return float64(n) * models[m].IdleWatts * periodSeconds / 3.6e6 }
	wantKWh := idle(0, 2) + idle(3, 1) + idle(0, 1) + idle(3, 1)
	sw := switchCosts(models)
	wantUSD := wantKWh*pricePerKWh + 3*sw[0] + sw[3]
	if math.Abs(kwh-wantKWh) > 1e-12 || math.Abs(usd-wantUSD) > 1e-12 {
		t.Errorf("energy %v kWh $%v, want %v kWh $%v", kwh, usd, wantKWh, wantUSD)
	}
}

// TestReplayKeepsPeriodsApart runs the open-loop replay against a fake
// harmonyd whose ticks take a while, and checks the ordering rule: a
// tick starts only after its slot's batches arrived, and no batch of the
// next period arrives before the tick has answered.
func TestReplayKeepsPeriodsApart(t *testing.T) {
	var (
		mu       sync.Mutex
		answered = -1 // highest tick index answered
		arrived  = map[int]int{}
		problems []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/tasks":
			tasks, err := daemon.DecodeTasks(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			for _, task := range tasks {
				k := int(task.Submit / periodSeconds)
				if k > answered+1 {
					problems = append(problems, fmt.Sprintf("task of period %d before tick %d answered", k, k-1))
				}
				arrived[k]++
			}
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"accepted":%d}`, len(tasks))
		case "/v1/tick":
			mu.Lock()
			k := answered + 1
			if arrived[k] != 150 {
				problems = append(problems, fmt.Sprintf("tick %d started with %d of 150 tasks", k, arrived[k]))
			}
			mu.Unlock()
			time.Sleep(60 * time.Millisecond)
			mu.Lock()
			answered = k
			mu.Unlock()
			fmt.Fprintf(w, `{"periodIndex":%d}`, k+1)
		case "/metrics":
			fmt.Fprintln(w, "harmonyd_tick_duration_seconds_sum 0.5")
		}
	}))
	defer srv.Close()

	var tasks []trace.Task
	for i := 0; i < 450; i++ {
		tasks = append(tasks, trace.Task{ID: uint64(i), Submit: float64(i) * 2})
	}
	s, err := buildSchedule(tasks, 3, minSlot)
	if err != nil {
		t.Fatal(err)
	}
	out := replayOpenLoop(strings.TrimPrefix(srv.URL, "http://"), s, newTracer(), 0)
	if attempted, failed := countFailures(out.ingest, out.ticks); attempted != 9 || failed != 0 {
		t.Errorf("attempted %d failed %d, want 9 and 0", attempted, failed)
	}
	if out.accepted != 450 || len(out.serverMs) != 3 {
		t.Errorf("accepted %d, %d server tick times", out.accepted, len(out.serverMs))
	}
	// The batches of periods 1 and 2 are held behind a 60 ms tick; their
	// latency must be the ingest's, not the tick's.
	for j, x := range out.ingest {
		if x.held.IsZero() != (s.batchSlot[j] == 0) {
			t.Errorf("batch %d of period %d: held %v", j, s.batchSlot[j], x.held)
		}
		if x.latency() >= 50*time.Millisecond {
			t.Errorf("batch %d latency %v carries the tick's", j, x.latency())
		}
	}
	for k, x := range out.ticks {
		if x.latency() < 60*time.Millisecond {
			t.Errorf("tick %d latency %v, shorter than the tick", k, x.latency())
		}
	}
	for k, p := range out.plans {
		if p == nil || p.PeriodIndex != k+1 {
			t.Errorf("tick %d answered %+v", k, p)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range problems {
		t.Error(p)
	}
}
