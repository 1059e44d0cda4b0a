package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/forecast"
	"harmony/internal/lp"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// dumpEnv is core.Controller.Step's plan-capture hook: when set, every
// Step writes its CBS-RELAX input to this path as JSON.
const dumpEnv = "HARMONY_DUMP_PLAN"

// simTrace records spans during a traced simulation and captures what
// each control tick saw and decided, for the layer replays afterwards.
type simTrace struct {
	tr       *tracer
	root     int // the workload's root span
	runSpan  int // the sim.Run span, parent of every tick span
	h        *sched.Harmony
	dumpPath string

	evals     []float64         // queueing.WaitEvals delta per tick
	arrivals  [][]int           // per tick: Observation.Arrivals
	forecasts [][]float64       // per tick: Harmony.LastForecast after the tick
	inputs    []*core.PlanInput // per tick: the captured CBS-RELAX input
	decisions []*core.Decision  // per tick: Harmony.LastDecision (nil if failed)
	lostInput string            // why an input could not be captured

	labelNs, labelCalls int64
	src                 *countingSource
}

// wrap instruments the labeling closures (CBS only: they are the
// classify labeler) and the task source (stream workloads).
func (st *simTrace) wrap(cfg *sim.Config, a *assembly) {
	st.h = a.harmony
	if a.harmony != nil {
		typeOf, relabel := cfg.TypeOf, cfg.Relabel
		cfg.TypeOf = func(t trace.Task) int {
			start := time.Now()
			v := typeOf(t)
			st.labelNs += time.Since(start).Nanoseconds()
			st.labelCalls++
			return v
		}
		cfg.Relabel = func(cur int, age float64) int {
			start := time.Now()
			v := relabel(cur, age)
			st.labelNs += time.Since(start).Nanoseconds()
			st.labelCalls++
			return v
		}
	}
	if a.tasks != nil {
		a.tasks.timed = true
		st.src = a.tasks
	}
}

// capture runs after each tick, in its own span so the simulator's self
// time does not absorb it.
func (st *simTrace) capture(k int64, obs *sim.Observation, evals int64, failed bool) {
	id := st.tr.begin("bench.capture", st.runSpan, k)
	defer st.tr.end(id)
	st.evals = append(st.evals, float64(evals))
	if st.h == nil {
		return
	}
	st.arrivals = append(st.arrivals, append([]int(nil), obs.Arrivals...))
	st.forecasts = append(st.forecasts, st.h.LastForecast())
	var (
		in  *core.PlanInput
		dec *core.Decision
	)
	if !failed {
		dec = st.h.LastDecision()
		var err error
		if in, err = readPlanInput(st.dumpPath); err != nil && st.lostInput == "" {
			st.lostInput = fmt.Sprintf("tick %d: %v", k, err)
		}
	}
	st.inputs = append(st.inputs, in)
	st.decisions = append(st.decisions, dec)
}

// readPlanInput reads and removes the plan the tick's Step dumped, so a
// tick that dumps nothing can never be credited with an older input.
func readPlanInput(path string) (*core.PlanInput, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("no captured plan input (%s hook): %w", dumpEnv, err)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	var in core.PlanInput
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, fmt.Errorf("captured plan input: %w", err)
	}
	return &in, nil
}

// forecastReplay re-runs sched.Harmony's per-type forecasting (ARIMA(2,0,1)
// once 24 periods of history exist, EWMA before that or when the fit
// fails) over histories rebuilt from each tick's observed arrivals, and
// checks the result against the policy's LastForecast.
type forecastReplay struct {
	fits, fallbacks int
	arimaMs         []float64
	totalS          float64
	mismatch        string
}

const (
	minHistory = 24 // sched.HarmonyConfig.MinHistory default
	ewmaAlpha  = 0.4
)

func replayForecasts(tr *tracer, parent int, types []classify.TaskType, arrivals [][]int, want [][]float64) forecastReplay {
	var out forecastReplay
	short := shortSiblings(types)
	history := make([][]float64, len(types))
	last := make([]float64, len(types))
	dst := make([]float64, mpcHorizon)
	for k, arr := range arrivals {
		for n := range types {
			rate := 0.0
			if n < len(arr) {
				rate = float64(arr[n]) / periodSeconds
			}
			history[n] = append(history[n], rate)
		}
		for n := range types {
			hist := history[short[n]]
			name := "forecast.EWMA"
			if len(hist) >= minHistory {
				name = "forecast.ARIMA"
			}
			start := time.Now()
			usedARIMA, err := predict(hist, dst)
			end := time.Now()
			tr.record(name, parent, int64(k), start, end)
			out.totalS += end.Sub(start).Seconds()
			if err != nil {
				out.mismatch = fmt.Sprintf("tick %d type %d: %v", k, n, err)
				return out
			}
			if usedARIMA {
				out.fits++
				out.arimaMs = append(out.arimaMs, ms(end.Sub(start)))
			} else {
				out.fallbacks++
			}
			if short[n] == n {
				last[n] = dst[0]
			}
		}
		if k < len(want) && !reflect.DeepEqual(last, want[k]) {
			out.mismatch = fmt.Sprintf("tick %d: replayed forecast differs from Harmony.LastForecast", k)
			return out
		}
	}
	return out
}

// predict mirrors sched.Harmony.forecastRates for one history.
func predict(hist, dst []float64) (usedARIMA bool, err error) {
	if len(hist) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return false, nil
	}
	var pred forecast.Predictor
	if len(hist) >= minHistory {
		if ar, err := forecast.NewARIMA(2, 0, 1); err == nil && ar.Fit(hist) == nil {
			pred, usedARIMA = ar, true
		}
	}
	if pred == nil {
		e := &forecast.EWMA{Alpha: ewmaAlpha}
		if err := e.Fit(hist); err != nil {
			return false, err
		}
		pred = e
	}
	rates, err := pred.Forecast(len(dst))
	if err != nil {
		return usedARIMA, err
	}
	copy(dst, rates)
	for i, r := range dst {
		if r < 0 || math.IsNaN(r) {
			dst[i] = 0
		}
	}
	return usedARIMA, nil
}

// shortSiblings maps each task type to its class's short sub-type, where
// every arrival is recorded (the type itself when the class has none).
func shortSiblings(types []classify.TaskType) []int {
	shortOf := map[int]int{}
	for i, tt := range types {
		if tt.ID.Sub == 0 {
			shortOf[tt.ID.Class] = i
		}
	}
	out := make([]int, len(types))
	for i, tt := range types {
		out[i] = i
		if s, ok := shortOf[tt.ID.Class]; ok {
			out[i] = s
		}
	}
	return out
}

// planReplay re-solves each tick's captured CBS-RELAX input warm (the
// basis chained tick to tick, as Controller.Step chains it) and cold,
// and re-realizes each tick's plan with the delta and the full packer.
type planReplay struct {
	warmMs, coldMs         []float64
	mismatchedPlans        int
	deltaMs, fullMs        []float64
	lpProblem, coreProblem string
}

func replayPlans(tr *tracer, parent int, inputs []*core.PlanInput, decisions []*core.Decision) planReplay {
	var out planReplay
	var basis *lp.Basis
	var prev *core.Decision
	for k, in := range inputs {
		dec := decisions[k]
		if dec == nil {
			continue // failed tick: Step kept its basis and decision
		}
		if in == nil {
			out.lpProblem = fmt.Sprintf("tick %d has no captured input", k)
			out.coreProblem = out.lpProblem
			return out
		}
		start := time.Now()
		warm, next, err := core.SolveRelaxedWarm(in, basis)
		end := time.Now()
		tr.record("lp.SolveRelaxedWarm", parent, int64(k), start, end)
		if err != nil {
			out.lpProblem = fmt.Sprintf("tick %d warm replay: %v", k, err)
			return out
		}
		if warm.Objective != dec.Plan.Objective || warm.Iterations != dec.Plan.Iterations {
			out.lpProblem = fmt.Sprintf("tick %d warm replay objective %v (%d pivots), tick had %v (%d pivots)",
				k, warm.Objective, warm.Iterations, dec.Plan.Objective, dec.Plan.Iterations)
			return out
		}
		basis = next
		out.warmMs = append(out.warmMs, ms(end.Sub(start)))

		start = time.Now()
		cold, err := core.SolveRelaxed(in)
		end = time.Now()
		tr.record("lp.SolveRelaxed", parent, int64(k), start, end)
		if err != nil {
			out.lpProblem = fmt.Sprintf("tick %d cold replay: %v", k, err)
			return out
		}
		out.coldMs = append(out.coldMs, ms(end.Sub(start)))
		if !samePlan(warm, cold) {
			out.mismatchedPlans++
		}

		if out.coreProblem != "" {
			continue
		}
		c := &core.Controller{Machines: in.Machines, Containers: in.Containers,
			PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: core.CBS}
		start = time.Now()
		delta, err := c.RealizeDelta(prev, dec.Plan)
		end = time.Now()
		tr.record("core.RealizeDelta", parent, int64(k), start, end)
		if err == nil && !sameDecision(delta, dec) {
			err = fmt.Errorf("differs from the tick's decision")
		}
		if err != nil {
			out.coreProblem = fmt.Sprintf("tick %d delta realize replay: %v", k, err)
			continue
		}
		prev = delta
		out.deltaMs = append(out.deltaMs, ms(end.Sub(start)))

		start = time.Now()
		full, err := c.Realize(dec.Plan)
		end = time.Now()
		tr.record("core.Realize", parent, int64(k), start, end)
		if err == nil && !sameDecision(full, dec) {
			err = fmt.Errorf("differs from the tick's decision")
		}
		if err != nil {
			out.coreProblem = fmt.Sprintf("tick %d full realize replay: %v", k, err)
			continue
		}
		out.fullMs = append(out.fullMs, ms(end.Sub(start)))
	}
	return out
}

func samePlan(a, b *core.Plan) bool {
	return a.Objective == b.Objective && reflect.DeepEqual(a.Active, b.Active) &&
		reflect.DeepEqual(a.Alloc, b.Alloc) && reflect.DeepEqual(a.Scheduled, b.Scheduled)
}

func sameDecision(a, b *core.Decision) bool {
	return reflect.DeepEqual(a.ActiveMachines, b.ActiveMachines) &&
		reflect.DeepEqual(a.Quota, b.Quota) && reflect.DeepEqual(a.Dropped, b.Dropped)
}
