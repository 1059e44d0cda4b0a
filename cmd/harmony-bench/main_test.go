package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing exp", nil, "missing -exp"},
		{"unknown exp", []string{"-exp", "fig999"}, "unknown experiment"},
		{"unknown exp among all ids", []string{"-exp", "nope"}, "unknown experiment"},
		{"unknown cluster", []string{"-exp", "fig9", "-cluster", "azure"}, "unknown cluster"},
		{"zero parallel", []string{"-exp", "fig9", "-parallel", "0"}, "invalid -parallel"},
		{"negative parallel", []string{"-exp", "fig9", "-parallel", "-3"}, "invalid -parallel"},
		{"non-numeric parallel", []string{"-exp", "fig9", "-parallel", "lots"}, "invalid value"},
		{"undefined flag", []string{"-exp", "fig9", "-bogus"}, "flag provided but not defined"},
		{"bad golden mode", []string{"-exp", "fig9", "-golden", "verify"}, "invalid -golden"},
		{"unknown id in list", []string{"-exp", "fig9,fig999"}, "unknown experiment"},
		{"only commas", []string{"-exp", ",,"}, "missing -exp"},
		{"zero bench-ms", []string{"-benchjson", "x.json", "-bench-ms", "0"}, "invalid -bench-ms"},
		{"negative bench-ms", []string{"-benchjson", "x.json", "-bench-ms", "-5"}, "invalid -bench-ms"},
		{"non-numeric bench-ms", []string{"-benchjson", "x.json", "-bench-ms", "slow"}, "invalid value"},
		{"unwritable cpuprofile", []string{"-list", "-cpuprofile", "/nonexistent-dir/cpu.prof"}, "-cpuprofile"},
		{"unwritable memprofile", []string{"-list", "-memprofile", "/nonexistent-dir/mem.prof"}, "-memprofile"},
		{"missing baseline", []string{"-benchjson-check", "/nonexistent-dir/bench.json"}, "benchjson-check"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tt.args, err, tt.want)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig26"} {
		if !strings.Contains(b.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// A static experiment regenerates under -parallel without touching the
// simulation caches, and the flag accepts values above the id count.
func TestRunStaticExperimentParallel(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig9", "-parallel", "8"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fig9") {
		t.Errorf("fig9 output missing header: %q", b.String())
	}
}

// Comma-separated ids run in input order, like separate invocations.
func TestRunCommaSeparatedExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "fig1, fig9"}, &b); err != nil {
		t.Fatal(err)
	}
	i1 := strings.Index(b.String(), "fig1")
	i9 := strings.Index(b.String(), "fig9")
	if i1 < 0 || i9 < 0 || i9 < i1 {
		t.Errorf("expected fig1 before fig9 in output:\n%s", b.String())
	}
}

func TestGoldenWriteCheckRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "golden")
	var b strings.Builder
	if err := run([]string{"-exp", "fig1,fig9", "-golden", "write", "-golden-dir", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig9"} {
		if _, err := os.Stat(filepath.Join(dir, id+".txt")); err != nil {
			t.Errorf("golden file for %s not written: %v", id, err)
		}
	}

	// Unchanged inputs pass the check.
	b.Reset()
	if err := run([]string{"-exp", "fig1,fig9", "-golden", "check", "-golden-dir", dir}, &b); err != nil {
		t.Fatalf("check after write: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "fig1 ok") || !strings.Contains(b.String(), "fig9 ok") {
		t.Errorf("check output: %s", b.String())
	}

	// A tampered golden fails the check and names the experiment.
	tampered := filepath.Join(dir, "fig9.txt")
	if err := os.WriteFile(tampered, []byte("stale rendering\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	err := run([]string{"-exp", "fig1,fig9", "-golden", "check", "-golden-dir", dir}, &b)
	if err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Fatalf("tampered golden not caught: err=%v\n%s", err, b.String())
	}
	if strings.Contains(err.Error(), "fig1,") {
		t.Errorf("untampered fig1 flagged: %v", err)
	}

	// A missing golden is an error, not a silent pass.
	if err := os.Remove(tampered); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig9", "-golden", "check", "-golden-dir", dir}, io.Discard); err == nil {
		t.Error("missing golden file passed the check")
	}
}

// TestBenchJSONRoundtrip captures a (tiny-budget) control-path baseline
// and validates it with -benchjson-check; tampered schemas, unknown ops,
// and missing ops must all fail the check.
func TestBenchJSONRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark capture in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var b strings.Builder
	if err := run([]string{"-benchjson", path, "-bench-ms", "1"}, &b); err != nil {
		t.Fatalf("benchjson: %v\n%s", err, b.String())
	}
	for _, op := range []string{"relax-cold-mpc", "relax-warm-mpc", "placement", "placement-delta", "harmony-period-tick"} {
		if !strings.Contains(b.String(), op) {
			t.Errorf("capture output missing op %q:\n%s", op, b.String())
		}
	}

	b.Reset()
	if err := run([]string{"-benchjson-check", path}, &b); err != nil {
		t.Fatalf("check after capture: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "ok") {
		t.Errorf("check output: %s", b.String())
	}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name, content, want string
	}{
		{"wrong schema", strings.Replace(string(good), "control-path-bench/v1", "control-path-bench/v0", 1), "schema"},
		{"unknown op", strings.Replace(string(good), `"relax-cold-mpc"`, `"relax-hot-mpc"`, 1), "unknown op"},
		{"not json", "ns/op all the way down", "invalid character"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(bad, []byte(tt.content), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{"-benchjson-check", bad}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("tampered baseline (%s) not caught: %v", tt.name, err)
			}
		})
	}
}

// TestCommittedBenchBaseline guards the repository's own tracked
// baseline: BENCH_control_path.json must parse and cover the current op
// set. (Numbers are a record of one machine's run, not an assertion.)
func TestCommittedBenchBaseline(t *testing.T) {
	if err := run([]string{"-benchjson-check", filepath.Join("..", "..", "BENCH_control_path.json")}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestSimScaleJSONRoundtrip captures a (tiny) streaming-scale baseline
// and validates it with the same -benchjson-check entry point — the
// checker dispatches on the schema tag. Tampered files must fail.
func TestSimScaleJSONRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simscale.json")
	var b strings.Builder
	args := []string{"-simscale-json", path, "-hours", "0.5", "-rate", "0.5", "-scale", "200"}
	if err := run(args, &b); err != nil {
		t.Fatalf("simscale-json: %v\n%s", err, b.String())
	}
	for _, op := range []string{"tasks-per-sec", "bytes-per-task", "peak-heap-bytes"} {
		if !strings.Contains(b.String(), op) {
			t.Errorf("capture output missing op %q:\n%s", op, b.String())
		}
	}

	b.Reset()
	if err := run([]string{"-benchjson-check", path}, &b); err != nil {
		t.Fatalf("check after capture: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "sim-scale") {
		t.Errorf("check output should identify the schema: %s", b.String())
	}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name, content, want string
	}{
		{"wrong schema", strings.Replace(string(good), "sim-scale-bench/v1", "sim-scale-bench/v0", 1), "schema"},
		{"unknown op", strings.Replace(string(good), `"tasks-per-sec"`, `"tasks-per-min"`, 1), "unknown op"},
		{"missing op", strings.Replace(string(good), `"bytes-per-task"`, `"tasks-per-sec"`, 1), "duplicate op"},
		{"zero tasks", regexp.MustCompile(`"tasks": \d+`).ReplaceAllString(string(good), `"tasks": 0`), "implausible task count"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(bad, []byte(tt.content), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{"-benchjson-check", bad}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("tampered baseline (%s) not caught: %v", tt.name, err)
			}
		})
	}

	if err := run([]string{"-simscale-json", path, "-simscale-policy", "cbs"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "characterization-free") {
		t.Errorf("cbs simscale policy should be rejected, got %v", err)
	}
}

// TestCommittedSimScaleBaseline guards the tracked streaming-scale
// baseline: BENCH_sim_scale.json must parse, carry the exact op set,
// and record the 1M+-task run it documents.
func TestCommittedSimScaleBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_sim_scale.json")
	if err := run([]string{"-benchjson-check", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file simScaleFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Tasks < 1_000_000 {
		t.Errorf("committed baseline records %d tasks, want >= 1M (regenerate with make sim-scale-baseline)", file.Tasks)
	}
}

// TestProfileFlags exercises the pprof hooks on a cheap mode: both
// profile files must exist and be non-empty afterwards.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCommittedGoldens guards the repository's own golden files: the fast
// deterministic experiments must reproduce them exactly. fig13-17 (class
// centroids) and fig14-18 (short/long split) pin the characterization's
// output itself, not only its class sizes.
func TestCommittedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment regeneration in -short mode")
	}
	var b strings.Builder
	if err := run([]string{"-exp", "fig1,fig9,fig10-12,fig13-17,fig14-18", "-golden", "check"}, &b); err != nil {
		t.Fatalf("committed goldens stale: %v\n%s", err, b.String())
	}
}
