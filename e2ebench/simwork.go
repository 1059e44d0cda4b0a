package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"harmony"
	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/queueing"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// The simulation settings of harmony-sim's defaults (the facade's, except
// that harmony-sim passes -omega 1), which the benchmark's own sim.Run
// assembly must reproduce.
const (
	periodSeconds = 300.0
	mpcHorizon    = 2
	epsilon       = 0.25
	omega         = 1.0
	switchDollars = 0.01
	pricePerKWh   = 0.08
	bootDelay     = 120.0
	baselineUtil  = 0.8
	chunkSize     = 4096    // StreamConfig default
	delaySamples  = 100_000 // StreamConfig default reservoir size
)

// headlineConfig is the ROADMAP headline workload: 12 h at 1.6 tasks/s on
// the Table II cluster divided by 20 (500 machines).
func headlineConfig(seed int64) harmony.WorkloadConfig {
	return harmony.WorkloadConfig{Seed: seed, Hours: 12, TasksPerSecond: 1.6,
		Cluster: harmony.ClusterTableII, ClusterScale: 20}
}

// fullClusterConfig is the full Table II cluster (10 000 machines) for
// 13 h at 10.1 tasks/s, about 1.33M tasks.
func fullClusterConfig(seed int64) harmony.WorkloadConfig {
	return harmony.WorkloadConfig{Seed: seed, Hours: 13, TasksPerSecond: 10.1,
		Cluster: harmony.ClusterTableII, ClusterScale: 1}
}

// characterizeConfig is what harmony.Workload.Characterize passes to
// classify for CharacterizeConfig{Seed: seed}.
func characterizeConfig(seed int64) classify.Config {
	return classify.Config{MaxK: 12, MinGain: 0.05, Seed: seed}
}

// tableII returns the Table II machine population divided by scale, the
// way both the facade and harmonyd build it.
func tableII(scale int) ([]trace.MachineType, []energy.Model) {
	models := energy.TableII()
	machines := make([]trace.MachineType, len(models))
	for i := range models {
		models[i].Count /= scale
		if models[i].Count < 1 {
			models[i].Count = 1
		}
		machines[i] = models[i].MachineType(i + 1)
	}
	return machines, models
}

// switchCosts scales the per-transition cost by idle power relative to
// the largest machine, as the facade and harmonyd do.
func switchCosts(models []energy.Model) []float64 {
	maxIdle := 0.0
	for _, m := range models {
		maxIdle = math.Max(maxIdle, m.IdleWatts)
	}
	out := make([]float64, len(models))
	for i, m := range models {
		out[i] = switchDollars * m.IdleWatts / maxIdle
	}
	return out
}

// setupHeadline generates the headline workload and characterizes it,
// with one span per layer call.
func setupHeadline(seed int64, tr *tracer, parent int) (*harmony.Workload, *classify.Characterization, error) {
	id := tr.begin("trace.Generate", parent, -1)
	w, err := harmony.GenerateWorkload(headlineConfig(seed))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("classify.Characterize", parent, -1)
	ch, err := classify.Characterize(w.Trace, characterizeConfig(seed))
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("characterize: %w", err)
	}
	return w, ch, nil
}

// assembly is a sim.Config built the way harmony.Simulate (CBS) or
// harmony.SimulateStream (baseline) builds it, so the benchmark can wrap
// the policy, the task source and the labeling closures.
type assembly struct {
	cfg     sim.Config
	harmony *sched.Harmony // nil for the baseline policy
	types   []classify.TaskType
	tasks   *countingSource // stream workloads only
}

func cbsAssembly(w *harmony.Workload, ch *classify.Characterization) (*assembly, error) {
	types := ch.TaskTypes()
	labeler := classify.NewLabeler(ch)
	typeIdx := make(map[classify.TypeID]int, len(types))
	for i, tt := range types {
		typeIdx[tt.ID] = i
	}
	price := energy.FlatPrice(pricePerKWh)
	switchCost := switchCosts(w.Models)
	h, err := sched.NewHarmony(sched.HarmonyConfig{
		Mode:          core.CBS,
		Machines:      w.Trace.Machines,
		Models:        w.Models,
		Types:         types,
		Price:         price,
		PeriodSeconds: periodSeconds,
		Horizon:       mpcHorizon,
		Epsilon:       epsilon,
		Omega:         omega,
		SwitchCost:    switchCost,
		Predictor:     sched.PredictARIMA,
	})
	if err != nil {
		return nil, err
	}
	return &assembly{
		cfg: sim.Config{
			Trace:    w.Trace,
			Models:   w.Models,
			Price:    price,
			Policy:   h,
			Period:   periodSeconds,
			NumTypes: len(types),
			TypeOf: func(task trace.Task) int {
				id, ok := labeler.Initial(task)
				if !ok {
					return 0
				}
				return typeIdx[id]
			},
			Relabel: func(current int, age float64) int {
				if current < 0 || current >= len(types) {
					return current
				}
				if out, ok := typeIdx[labeler.Refresh(types[current].ID, age)]; ok {
					return out
				}
				return current
			},
			SwitchCost: switchCost,
			BootDelay:  bootDelay,
		},
		harmony: h,
		types:   types,
	}, nil
}

func baselineAssembly(seed int64) (*assembly, error) {
	wcfg := fullClusterConfig(seed)
	machines, models := tableII(wcfg.ClusterScale)
	gen := trace.DefaultConfig(seed)
	gen.Horizon = wcfg.Hours * trace.Hour
	gen.RatePerS = wcfg.TasksPerSecond
	gen.Machines = machines
	src, err := trace.NewGenSource(gen, chunkSize)
	if err != nil {
		return nil, err
	}
	counted := &countingSource{src: src}
	return &assembly{
		cfg: sim.Config{
			Source:          counted,
			Models:          models,
			Price:           energy.FlatPrice(pricePerKWh),
			Policy:          &sched.Baseline{Machines: machines, Models: models, Utilization: baselineUtil},
			Period:          periodSeconds,
			NumTypes:        1,
			TypeOf:          func(trace.Task) int { return 0 },
			SwitchCost:      switchCosts(models),
			BootDelay:       bootDelay,
			MaxDelaySamples: delaySamples,
		},
		tasks: counted,
	}, nil
}

// countingSource counts the tasks a stream delivers; with timed set it
// also accumulates the time spent inside the generator.
type countingSource struct {
	src   trace.TaskSource
	n     int64
	timed bool
	ns    int64
}

func (c *countingSource) Meta() trace.Meta { return c.src.Meta() }

func (c *countingSource) Next(t *trace.Task) (bool, error) {
	var start time.Time
	if c.timed {
		start = time.Now()
	}
	ok, err := c.src.Next(t)
	if c.timed {
		c.ns += time.Since(start).Nanoseconds()
	}
	if ok {
		c.n++
	}
	return ok, err
}

// errSetupProbe stops a set-up probe at the simulator's first task pull.
var errSetupProbe = errors.New("set-up probe reached the first task")

// probeFullClusterSetup times what a full-cluster streamed run pays before
// its first simulated task: the machine population, the generator and the
// policy, then sim.Run's own cluster state for 10 000 machines up to the
// first task pull, where the probe stops it.
func probeFullClusterSetup(seed int64) (time.Duration, error) {
	start := time.Now()
	a, err := baselineAssembly(seed)
	if err != nil {
		return 0, err
	}
	a.cfg.Source = probeSource{meta: a.cfg.Source.Meta()}
	_, err = sim.Run(a.cfg)
	if !errors.Is(err, errSetupProbe) {
		return 0, fmt.Errorf("set-up probe: %v", err)
	}
	return time.Since(start), nil
}

// probeSource has the stream's metadata but fails its first pull.
type probeSource struct{ meta trace.Meta }

func (p probeSource) Meta() trace.Meta             { return p.meta }
func (probeSource) Next(*trace.Task) (bool, error) { return false, errSetupProbe }

// tickPolicy times each control tick (Policy.Period) and counts failed
// ticks: no decision, or a new policy error. With a simTrace attached it
// also opens a span per tick and captures the tick's inputs for replay.
type tickPolicy struct {
	inner   sim.Policy
	errOf   func() error
	prevErr error
	ms      []float64
	failed  int
	trace   *simTrace
}

func (p *tickPolicy) Name() string { return p.inner.Name() }

func (p *tickPolicy) Period(obs *sim.Observation) sim.Directive {
	k := int64(len(p.ms))
	var id int
	var evals int64
	if p.trace != nil {
		evals = queueing.WaitEvals()
		id = p.trace.tr.begin("sched.Period", p.trace.runSpan, k)
	}
	start := time.Now()
	dir := p.inner.Period(obs)
	p.ms = append(p.ms, ms(time.Since(start)))
	if p.trace != nil {
		p.trace.tr.end(id)
	}
	var err error
	if p.errOf != nil {
		err = p.errOf()
	}
	failed := dir.TargetActive == nil || (err != nil && err != p.prevErr)
	p.prevErr = err
	if failed {
		p.failed++
	}
	if p.trace != nil {
		p.trace.capture(k, obs, queueing.WaitEvals()-evals, failed)
	}
	return dir
}

// simOutcome is what one measured simulation produced.
type simOutcome struct {
	res   *sim.Result
	wall  time.Duration
	tasks int64
	ticks *tickPolicy
}

// runAssembly runs sim.Run on the assembly with the tick timer in place.
func runAssembly(a *assembly, st *simTrace) (*simOutcome, error) {
	tp := &tickPolicy{inner: a.cfg.Policy, trace: st}
	if a.harmony != nil {
		tp.errOf = a.harmony.Err
	}
	cfg := a.cfg
	cfg.Policy = tp
	if st != nil {
		st.wrap(&cfg, a)
		st.runSpan = st.tr.begin("sim.Run", st.root, -1)
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)
	if st != nil {
		st.tr.end(st.runSpan)
	}
	if err != nil {
		return nil, fmt.Errorf("sim.Run: %w", err)
	}
	out := &simOutcome{res: res, wall: wall, ticks: tp}
	switch {
	case a.tasks != nil:
		out.tasks = a.tasks.n
	default:
		out.tasks = int64(len(cfg.Trace.Tasks))
	}
	return out, nil
}

// simFigures are the simulated outputs the benchmark reports and compares.
type simFigures struct {
	EnergyKWh, EnergyCost, SwitchCost float64
	Scheduled, Unscheduled, Completed int
	ProdDelay                         float64
	SwitchEvents                      int
}

func figuresOfSim(r *sim.Result) simFigures {
	return simFigures{
		EnergyKWh: r.EnergyKWh, EnergyCost: r.EnergyCost, SwitchCost: r.SwitchCost,
		Scheduled: r.Scheduled, Unscheduled: r.Unscheduled, Completed: r.Completed,
		ProdDelay: r.MeanDelay(trace.Production), SwitchEvents: r.SwitchEvents,
	}
}

func figuresOfFacade(r *harmony.SimulationResult) simFigures {
	return simFigures{
		EnergyKWh: r.EnergyKWh, EnergyCost: r.EnergyCost, SwitchCost: r.SwitchCost,
		Scheduled: r.Scheduled, Unscheduled: r.Unscheduled, Completed: r.Completed,
		ProdDelay: r.MeanDelaySeconds[harmony.GroupProduction], SwitchEvents: r.SwitchEvents,
	}
}

// checkSim applies the checks every simulated run must pass: tasks are
// conserved, and the simulated figures are finite.
func checkSim(rep *report, f simFigures, generated int64) {
	if int64(f.Scheduled+f.Unscheduled) != generated {
		rep.fail("tasks not conserved: %d scheduled + %d unscheduled != %d generated",
			f.Scheduled, f.Unscheduled, generated)
	}
	for name, v := range map[string]float64{
		"energy": f.EnergyKWh, "energy cost": f.EnergyCost,
		"switch cost": f.SwitchCost, "production delay": f.ProdDelay,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("simulated %s is %v", name, v)
		}
	}
}

// countTicks adds a simulation's control ticks to the operations count.
func countTicks(rep *report, o *simOutcome) {
	rep.attempted += int64(len(o.ticks.ms))
	rep.failed += int64(o.ticks.failed)
}

// peakRSSMB returns this process's peak resident set size.
func peakRSSMB() float64 { return maxRSSMB(selfRusage()) }
