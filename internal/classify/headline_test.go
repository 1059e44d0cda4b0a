package classify_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"harmony"
	"harmony/internal/classify"
	"harmony/internal/trace"
)

// headlineTrace generates the paper's headline workload: 12 h at 1.6
// tasks/s against Table II / 20 (500 machines, ~124k tasks).
func headlineTrace(tb testing.TB, seed int64) *trace.Trace {
	tb.Helper()
	w, err := harmony.GenerateWorkload(harmony.WorkloadConfig{
		Seed: seed, Hours: 12, TasksPerSecond: 1.6, ClusterScale: 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w.Trace
}

// headlineConfig is what harmony.Workload.Characterize passes to
// classify for CharacterizeConfig{Seed: seed}.
func headlineConfig(seed int64) classify.Config {
	return classify.Config{MaxK: 12, MinGain: 0.05, Seed: seed}
}

// oracleDigests are the SHA-256 digests of classify.Save's output for
// the headline characterization as computed with the plain Lloyd loop
// (oracleLloyd in internal/kmeans/kmeans_test.go) and serial restarts
// and groups, before bound pruning and the fan-outs replaced them.
var oracleDigests = map[int64]string{
	42:  "0a1988f0c46b50ebe9f5218a308c7061c6c2ecc2e056dddfec807b5182f15b77",
	410: "a2d867cda64f635b130477262eab084bd188dc4044c8441cac65697ccf317722",
}

// The characterization is a pure function of trace and config: the
// saved bytes are identical at GOMAXPROCS 1, 4 and 8 — however the
// concurrent restarts and groups interleave — and equal to the
// oracle-backed characterization.
func TestCharacterizeHeadlineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping headline characterizations in -short mode")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, seed := range []int64{42, 410} {
		tr := headlineTrace(t, seed)
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			ch, err := classify.Characterize(tr, headlineConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := classify.Save(&b, ch); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			if got := hex.EncodeToString(sum[:]); got != oracleDigests[seed] {
				t.Errorf("seed %d GOMAXPROCS=%d: saved characterization digest %s, oracle %s",
					seed, procs, got, oracleDigests[seed])
			}
		}
	}
}

// BenchmarkCharacterizeHeadline is the characterization layer of the
// headline end-to-end run: step one and step two over the generated
// seed-42 trace.
func BenchmarkCharacterizeHeadline(b *testing.B) {
	tr := headlineTrace(b, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Characterize(tr, headlineConfig(42)); err != nil {
			b.Fatal(err)
		}
	}
}
