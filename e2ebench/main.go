// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public entry points — the harmony facade, or
// the harmonyd binary over HTTP — checks the outputs, and prints one JSON
// line: the end-to-end figures of an untraced run (-trace 0), or the
// per-layer ledger of a traced run (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string // checkout root: BENCHMARK.json, .bench_build/
	harmonyd string // harmonyd binary
	runDir   string // files this run writes
}

const (
	// setupReps is how many set-ups an untraced run times; it reports
	// their median. Each costs seconds (a characterization), so more
	// would outweigh the workload itself.
	setupReps = 2
	// probeReps is how many set-up probes an untraced baseline-scale run
	// times: each costs milliseconds, so more of them steady the median.
	probeReps = 21
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"cbs-headline":    runHeadline,
	"baseline-scale":  runFullCluster,
	"harmonyd-replay": runDaemonReplay,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt   options
		trace int
	)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&opt.seed, "seed", 42, "workload seed")
	fs.IntVar(&opt.seconds, "seconds", 30, "measured seconds (the harmonyd-replay replay length)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end figures, 1: traced per-layer ledger")
	fs.StringVar(&opt.root, "root", ".", "checkout root")
	fs.StringVar(&opt.harmonyd, "harmonyd", "", "harmonyd binary (default <root>/.bench_build/bin/harmonyd)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[opt.workload]
	if !ok || (trace != 0 && trace != 1) || opt.seconds < 1 {
		fmt.Fprintf(stderr, "e2ebench: need -workload %v, -trace 0|1 and positive -seconds\n", workloadNames())
		return 2
	}
	opt.traced = trace == 1
	if opt.harmonyd == "" {
		opt.harmonyd = filepath.Join(opt.root, ".bench_build", "bin", "harmonyd")
	}
	if err := checkDeclarations(opt.root); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	opt.runDir = filepath.Join(opt.root, ".bench_build", "run")
	if err := os.MkdirAll(opt.runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}

	rep := newReport()
	start := time.Now()
	if err := runner(opt, rep); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", opt.workload, err)
		return 1
	}
	if rep.tr != nil {
		spans := rep.tr.snapshot()
		checkSpans(rep, spans)
		path := filepath.Join(opt.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "e2ebench: %d spans written to %s\n", len(spans), path)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "note:", n)
	}
	res := rep.result(opt.traced)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "FAILED:", p)
	}
	fmt.Fprintf(stderr, "e2ebench: %s seed %d trace %d took %.1fs\n", opt.workload, opt.seed, trace, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
