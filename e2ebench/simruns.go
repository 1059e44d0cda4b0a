package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"harmony"
	"harmony/internal/classify"
)

// headlineEnergySeed42 is what harmony-sim -policy cbs -hours 12 -rate 1.6
// -scale 20 -seed 42 prints as its energy, in kWh to two decimals.
const headlineEnergySeed42 = 571.93

// runHeadline is the cbs-headline workload.
func runHeadline(opt options, rep *report) error {
	if !opt.traced {
		var (
			setups []float64
			w      *harmony.Workload
			ch     *classify.Characterization
		)
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			start := time.Now()
			var err error
			if w, ch, err = setupHeadline(opt.seed, nil, 0); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		rep.set("setup_s", median(setups))
		a, err := cbsAssembly(w, ch)
		if err != nil {
			return err
		}
		o, err := runAssembly(a, nil)
		if err != nil {
			return err
		}
		f := figuresOfSim(o.res)
		checkSim(rep, f, int64(w.NumTasks()))
		if opt.seed == 42 && math.Round(f.EnergyKWh*100)/100 != headlineEnergySeed42 {
			rep.fail("seed 42 energy %.2f kWh, harmony-sim prints %.2f", f.EnergyKWh, headlineEnergySeed42)
		}
		countTicks(rep, o)
		logRunPhase(o)
		return nil
	}

	tr := newTracer()
	rep.tr = tr
	root := tr.begin("cbs-headline", 0, -1)
	defer tr.end(root)
	w, ch, err := setupHeadline(opt.seed, tr, root)
	if err != nil {
		return err
	}

	// The untraced reference: the public facade end to end.
	hc, err := w.Characterize(harmony.CharacterizeConfig{Seed: opt.seed})
	if err != nil {
		return err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := harmony.Simulate(w, hc, harmony.SimulationConfig{Policy: harmony.PolicyCBS, Omega: omega})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	allocPerTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(w.NumTasks())

	// The benchmark's own assembly, untraced: the run phase's host time
	// and its tick latencies, free of spans and of the plan capture.
	a, err := cbsAssembly(w, ch)
	if err != nil {
		return err
	}
	runtime.GC()
	plain, err := runAssembly(a, nil)
	if err != nil {
		return err
	}
	compareWithFacade(rep, plain, figuresOfFacade(ref))
	rep.set("e2e.peak_rss_mb", peakRSSMB())

	// The traced run, capturing each tick's plan input for the replays.
	if a, err = cbsAssembly(w, ch); err != nil {
		return err
	}
	st := &simTrace{tr: tr, root: root, dumpPath: filepath.Join(opt.runDir, fmt.Sprintf("plan-%d.json", os.Getpid()))}
	runtime.GC()
	if err := os.Setenv(dumpEnv, st.dumpPath); err != nil {
		return err
	}
	o, err := runAssembly(a, st)
	os.Unsetenv(dumpEnv)
	if err != nil {
		return err
	}
	compareWithFacade(rep, o, figuresOfFacade(ref))
	checkSim(rep, figuresOfSim(o.res), int64(w.NumTasks()))

	reportSimLayers(rep, tr, st, o, plain, allocPerTask)
	rep.set("classify.task_types", float64(len(a.types)))

	if st.lostInput != "" {
		rep.note("plan capture failed: %s", st.lostInput)
	}
	replayRoot := tr.begin("bench.replay", root, -1)
	fr := replayForecasts(tr, replayRoot, a.types, st.arrivals, st.forecasts)
	pr := replayPlans(tr, replayRoot, st.inputs, st.decisions)
	tr.end(replayRoot)
	reportReplays(rep, fr, pr)
	return nil
}

// runFullCluster is the baseline-scale workload.
func runFullCluster(opt options, rep *report) error {
	if !opt.traced {
		var setups []float64
		for i := 0; i < probeReps; i++ {
			// Each probe starts from a heap returned to the OS, as a fresh
			// process's set-up does; a collection or reused memory inside a
			// millisecond probe would otherwise dominate it.
			debug.FreeOSMemory()
			d, err := probeFullClusterSetup(opt.seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		rep.set("setup_s", median(setups))
		runtime.GC()
		a, err := baselineAssembly(opt.seed)
		if err != nil {
			return err
		}
		o, err := runAssembly(a, nil)
		if err != nil {
			return err
		}
		checkSim(rep, figuresOfSim(o.res), o.tasks)
		countTicks(rep, o)
		logRunPhase(o)
		return nil
	}

	tr := newTracer()
	rep.tr = tr
	root := tr.begin("baseline-scale", 0, -1)
	defer tr.end(root)

	ref, scale, err := harmony.SimulateStream(harmony.StreamConfig{Workload: fullClusterConfig(opt.seed)},
		nil, harmony.SimulationConfig{Policy: harmony.PolicyBaseline})
	if err != nil {
		return err
	}
	runtime.GC()
	a, err := baselineAssembly(opt.seed)
	if err != nil {
		return err
	}
	plain, err := runAssembly(a, nil)
	if err != nil {
		return err
	}
	compareWithFacade(rep, plain, figuresOfFacade(ref))
	rep.set("e2e.peak_rss_mb", peakRSSMB())
	runtime.GC()
	if a, err = baselineAssembly(opt.seed); err != nil {
		return err
	}
	st := &simTrace{tr: tr, root: root}
	o, err := runAssembly(a, st)
	if err != nil {
		return err
	}
	compareWithFacade(rep, o, figuresOfFacade(ref))
	checkSim(rep, figuresOfSim(o.res), o.tasks)
	if o.tasks != scale.Tasks || plain.tasks != scale.Tasks {
		rep.fail("runs streamed %d (traced) and %d (untraced) tasks, SimulateStream %d", o.tasks, plain.tasks, scale.Tasks)
	}
	reportSimLayers(rep, tr, st, o, plain, scale.BytesPerTask)

	// Bypass check: the control path must not have run.
	for _, name := range []string{"classify.characterize_s", "classify.label_calls",
		"forecast.fits", "forecast.fallbacks", "lp.pivots_total", "queueing.wait_evals"} {
		if rep.values[name] != 0 {
			rep.fail("baseline-scale should bypass %s, measured %v", name, rep.values[name])
		}
	}
	if p90 := rep.values["sched.tick_ms_p90"]; p90 >= 1 {
		rep.fail("baseline-scale tick p90 %.3f ms, want the µs range", p90)
	}
	return nil
}

// logRunPhase prints an untraced run's unbounded run-phase figures to
// stderr: they vary with the seed's content more than a bound allows
// (README.md), but a comparison at a fixed seed can use them.
func logRunPhase(o *simOutcome) {
	p50, _ := percentile(o.ticks.ms, 0.5)
	p90, _ := percentile(o.ticks.ms, 0.9)
	fmt.Fprintf(os.Stderr, "e2ebench: run phase %d tasks in %.3f s (%.1f tasks/s), tick p50 %.3f ms, p90 %.3f ms\n",
		o.tasks, o.wall.Seconds(), float64(o.tasks)/o.wall.Seconds(), p50, p90)
}

// compareWithFacade checks that one of the benchmark's own sim.Run
// assemblies reproduced the facade's result exactly.
func compareWithFacade(rep *report, o *simOutcome, ref simFigures) {
	if got := figuresOfSim(o.res); got != ref {
		rep.fail("sim.Run assembly differs from the facade: %+v vs %+v", got, ref)
	}
}

// reportSimLayers sets the per-layer figures of a traced simulation. o is
// the traced run; plain is the untraced run of the same assembly, which
// supplies every host-time figure of the run as a whole (throughput and
// tick latencies) so that neither spans nor the plan capture inflate them.
func reportSimLayers(rep *report, tr *tracer, st *simTrace, o, plain *simOutcome, allocPerTask float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	runSelf := time.Duration(self[st.runSpan])
	var srcNs int64
	if st.src != nil {
		srcNs = st.src.ns
	}
	simSelf := runSelf - time.Duration(st.labelNs+srcNs)
	if simSelf < 0 {
		rep.fail("sim.Run self time is negative (%v)", simSelf)
	}

	genS := sum(spansNamed(spans, "trace.Generate"))/1e3 + float64(srcNs)/1e9
	rep.set("trace.gen_s", genS)
	if genS > 0 {
		rep.set("trace.gen_tasks_per_s", float64(o.tasks)/genS)
	}
	rep.set("classify.characterize_s", sum(spansNamed(spans, "classify.Characterize"))/1e3)
	rep.set("classify.label_calls", float64(st.labelCalls))
	if st.labelCalls > 0 {
		rep.set("classify.label_ns_per_call", float64(st.labelNs)/float64(st.labelCalls))
	}

	if n := len(spansNamed(spans, "sched.Period")); n != len(plain.ticks.ms) {
		rep.fail("traced run ticked %d times, untraced %d", n, len(plain.ticks.ms))
	}
	ticks := plain.ticks.ms
	rep.set("sched.ticks", float64(len(ticks)-plain.ticks.failed))
	rep.set("sched.tick_errors", float64(plain.ticks.failed))
	rep.setPct("sched.tick_ms_p50", ticks, 0.5)
	rep.setPct("sched.tick_ms_p90", ticks, 0.9)
	rep.set("sched.tick_ms_max", maxOf(ticks))
	rep.set("sched.tick_total_s", sum(ticks)/1e3)
	countTicks(rep, o)
	rep.set("e2e.tasks_per_s", float64(plain.tasks)/plain.wall.Seconds())
	rep.set("e2e.failed_frac", float64(rep.failed)/float64(rep.attempted))

	rep.set("queueing.wait_evals", sum(st.evals))
	rep.setPct("queueing.wait_evals_per_tick_p50", st.evals, 0.5)

	var pivots []float64
	dropped := 0
	for _, d := range st.decisions {
		if d != nil {
			pivots = append(pivots, float64(d.Plan.Iterations))
			for _, x := range d.Dropped {
				dropped += x
			}
		}
	}
	rep.set("lp.pivots_total", sum(pivots))
	rep.setPct("lp.pivots_per_tick_p50", pivots, 0.5)
	rep.setPct("lp.pivots_per_tick_p90", pivots, 0.9)
	rep.set("core.dropped_containers", float64(dropped))
	if st.h != nil {
		ds := st.h.DeltaStats()
		rep.set("core.delta_reused_types", float64(ds.ReusedTypes))
		rep.set("core.delta_repacked_types", float64(ds.RepackedTypes))
		rep.set("core.delta_fallbacks", float64(ds.FullRepacks))
	}

	f := figuresOfSim(o.res)
	rep.set("sim.run_s", o.wall.Seconds())
	rep.set("sim.self_s", simSelf.Seconds())
	rep.set("sim.self_ns_per_task", float64(simSelf.Nanoseconds())/float64(o.tasks))
	rep.set("sim.alloc_bytes_per_task", allocPerTask)
	rep.set("e2e.energy_kwh", f.EnergyKWh)
	rep.set("e2e.cost_usd", f.EnergyCost+f.SwitchCost)
	rep.set("e2e.prod_delay_mean_s", f.ProdDelay)
	rep.set("e2e.unscheduled_frac", float64(f.Unscheduled)/float64(o.tasks))
	rep.set("bench.tracing_overhead_frac", o.wall.Seconds()/plain.wall.Seconds()-1)
}

// reportReplays sets the forecast, lp and core replay figures. A layer
// whose replay did not reproduce the run keeps its counts only; its
// timings stay 0 and the reason is noted, never estimated.
func reportReplays(rep *report, fr forecastReplay, pr planReplay) {
	rep.set("forecast.fits", float64(fr.fits))
	rep.set("forecast.fallbacks", float64(fr.fallbacks))
	if fr.mismatch != "" {
		rep.note("forecast replay not matched, timings omitted: %s", fr.mismatch)
	} else {
		rep.setPct("forecast.fit_ms_p50", fr.arimaMs, 0.5)
		rep.set("forecast.fit_total_s", fr.totalS)
	}
	if pr.lpProblem != "" {
		rep.note("lp replay not matched, timings omitted: %s", pr.lpProblem)
	} else {
		rep.setPct("lp.warm_solve_ms_p50", pr.warmMs, 0.5)
		rep.setPct("lp.warm_solve_ms_p90", pr.warmMs, 0.9)
		rep.setPct("lp.cold_solve_ms_p50", pr.coldMs, 0.5)
		rep.setPct("lp.cold_solve_ms_p90", pr.coldMs, 0.9)
		rep.set("lp.warm_cold_plan_mismatch", float64(pr.mismatchedPlans))
	}
	if pr.coreProblem != "" {
		rep.note("core realize replay not matched, timings omitted: %s", pr.coreProblem)
	} else {
		rep.setPct("core.realize_delta_ms_p50", pr.deltaMs, 0.5)
		rep.setPct("core.realize_full_ms_p50", pr.fullMs, 0.5)
	}
}
