package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/energy"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// threeBlobs returns well-separated gaussian blobs around the given centers.
func threeBlobs(r *rand.Rand, perBlob int, centers []Point, sigma float64) []Point {
	var pts []Point
	for _, c := range centers {
		for i := 0; i < perBlob; i++ {
			p := make(Point, len(c))
			for d := range c {
				p[d] = c[d] + sigma*r.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
	pts := []Point{{1}, {2}}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(pts, Config{K: 3}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Run([]Point{{1}, {1, 2}}, Config{K: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestRunRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	centers := []Point{{0, 0}, {10, 10}, {0, 10}}
	pts := threeBlobs(r, 100, centers, 0.5)
	res, err := Run(pts, Config{K: 3, Seed: 7, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Each true center should have a recovered centroid within 1.0.
	for _, c := range centers {
		_, d := Nearest(res.Centroids, c)
		if d > 1.0 {
			t.Errorf("no centroid near %v (closest at distance %v)", c, d)
		}
	}
	sizes := res.ClusterSizes()
	for i, s := range sizes {
		if s < 80 || s > 120 {
			t.Errorf("cluster %d size = %d, want ~100", i, s)
		}
	}
}

func TestRunK1CentroidIsMean(t *testing.T) {
	pts := []Point{{0, 0}, {2, 4}, {4, 2}}
	res, err := Run(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]-2) > 1e-9 {
		t.Errorf("centroid = %v, want [2 2]", res.Centroids[0])
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	res, err := Run(pts, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v, want 0", res.SSE)
	}
}

// Property: at convergence every point is assigned to its nearest centroid,
// and SSE matches a direct recomputation.
func TestRunAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
		}
		k := 1 + r.Intn(4)
		res, err := Run(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		sse := 0.0
		for i, p := range pts {
			best, _ := Nearest(res.Centroids, p)
			bd := sqDist(p, res.Centroids[best])
			ad := sqDist(p, res.Centroids[res.Assignment[i]])
			if ad > bd+1e-9 {
				return false
			}
			sse += ad
		}
		return math.Abs(sse-res.SSE) < 1e-6*(1+sse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: SSE is non-increasing in k (with enough restarts).
func TestSSEDecreasesWithK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := threeBlobs(r, 60, []Point{{0, 0}, {5, 5}, {10, 0}}, 1.0)
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res, err := Run(pts, Config{K: k, Seed: 11, Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.SSE > prev*1.001 {
			t.Errorf("SSE increased at k=%d: %v > %v", k, res.SSE, prev)
		}
		prev = res.SSE
	}
}

func TestNearest(t *testing.T) {
	cents := []Point{{0, 0}, {10, 0}}
	idx, d := Nearest(cents, Point{6, 0})
	if idx != 1 || math.Abs(d-4) > 1e-9 {
		t.Errorf("Nearest = %d, %v; want 1, 4", idx, d)
	}
	idx, d = Nearest(nil, Point{1})
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest(empty) = %d, %v", idx, d)
	}
}

func TestClusterStats(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {10, 10}, {12, 10}}
	res := &Result{
		Centroids:  []Point{{1, 0}, {11, 10}},
		Assignment: []int{0, 0, 1, 1},
	}
	means, stds := res.ClusterStats(pts)
	if math.Abs(means[0][0]-1) > 1e-9 || math.Abs(means[1][0]-11) > 1e-9 {
		t.Errorf("means = %v", means)
	}
	if math.Abs(stds[0][0]-1) > 1e-9 {
		t.Errorf("stddev = %v, want 1", stds[0][0])
	}
	if stds[0][1] != 0 {
		t.Errorf("stddev dim1 = %v, want 0", stds[0][1])
	}
}

func TestClusterStatsEmpty(t *testing.T) {
	res := &Result{}
	m, s := res.ClusterStats(nil)
	if m != nil || s != nil {
		t.Error("expected nil stats for empty result")
	}
}

func TestChooseK(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := threeBlobs(r, 80, []Point{{0, 0}, {20, 0}, {0, 20}}, 0.5)
	k, res, err := ChooseK(pts, 8, 0.3, Config{Seed: 13, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("ChooseK = %d, want 3", k)
	}
	if len(res.Centroids) != k {
		t.Errorf("result has %d centroids, want %d", len(res.Centroids), k)
	}
	if _, _, err := ChooseK(pts, 0, 0.1, Config{}); err == nil {
		t.Error("maxK=0 accepted")
	}
}

func TestChooseKCapsAtN(t *testing.T) {
	pts := []Point{{0}, {1}, {100}}
	k, _, err := ChooseK(pts, 10, 0.01, Config{Seed: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k > 3 {
		t.Errorf("k = %d exceeds n", k)
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := threeBlobs(r, 40, []Point{{0, 0}, {50, 50}}, 0.5)
	res, err := Run(pts, Config{K: 2, Seed: 3, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Silhouette(pts); s < 0.9 {
		t.Errorf("silhouette = %v, want > 0.9 for well-separated blobs", s)
	}
}

func TestSilhouetteOverlapping(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	pts := threeBlobs(r, 40, []Point{{0, 0}, {0.5, 0.5}}, 2.0)
	res, err := Run(pts, Config{K: 2, Seed: 3, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Silhouette(pts); s > 0.5 {
		t.Errorf("silhouette = %v, want low for overlapping blobs", s)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	// Single cluster: silhouette is 0 by definition.
	pts := []Point{{0}, {1}, {2}}
	res, err := Run(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Silhouette(pts); s != 0 {
		t.Errorf("single-cluster silhouette = %v, want 0", s)
	}
	// Empty input.
	var empty Result
	if s := empty.Silhouette(nil); s != 0 {
		t.Errorf("empty silhouette = %v", s)
	}
}

// oracleLloyd is the plain Lloyd loop the pruned lloyd replaced, kept
// verbatim as the reference it must match bit for bit: every point
// rescans every centroid each iteration.
func oracleLloyd(points []Point, centroids []Point, maxIter int) *Result {
	k := len(centroids)
	dim := len(points[0])
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; empty clusters keep their position.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	sse := 0.0
	for i, p := range points {
		sse += sqDist(p, centroids[assign[i]])
	}
	return &Result{
		Centroids:  centroids,
		Assignment: assign,
		SSE:        sse,
		Iterations: iter,
	}
}

// oracleSeedPlusPlus is plain k-means++ seeding, every distance computed
// per point: the reference for pointSet.seedPlusPlus, which must draw
// from r exactly as it does.
func oracleSeedPlusPlus(points []Point, k int, r *stats.RNG) []Point {
	centroids := make([]Point, 0, k)
	first := points[r.Intn(len(points))]
	centroids = append(centroids, clonePoint(first))

	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next Point
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			next = points[r.Intn(len(points))]
		} else {
			u := r.Float64() * total
			acc := 0.0
			idx := len(points) - 1
			for i, d := range d2 {
				acc += d
				if u < acc {
					idx = i
					break
				}
			}
			next = points[idx]
		}
		centroids = append(centroids, clonePoint(next))
		for i, p := range points {
			if d := sqDist(p, next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// prunedLloyd runs the pruned, distinct-point lloyd under test.
func prunedLloyd(t testing.TB, points, centroids []Point, maxIter int) *Result {
	t.Helper()
	ps, err := newPointSet(points)
	if err != nil {
		t.Fatal(err)
	}
	return ps.lloyd(centroids, maxIter)
}

// oracleRun is Run as it was before pruning and concurrency: restarts
// run one after another, each seeded and then iterated by oracleLloyd.
func oracleRun(points []Point, cfg Config) *Result {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	r := stats.NewRNG(cfg.Seed)
	var best *Result
	for attempt := 0; attempt < cfg.Restarts; attempt++ {
		res := oracleLloyd(points, oracleSeedPlusPlus(points, cfg.K, r), cfg.MaxIter)
		if best == nil || res.SSE < best.SSE {
			best = res
		}
	}
	return best
}

// oracleChooseK is ChooseK's elbow rule over oracleRun.
func oracleChooseK(points []Point, maxK int, minGain float64, cfg Config) (int, *Result) {
	if maxK > len(points) {
		maxK = len(points)
	}
	var (
		prevSSE float64
		prevRes *Result
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		res := oracleRun(points, c)
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - res.SSE) / prevSSE
			}
			if gain < minGain {
				return k - 1, prevRes
			}
		}
		prevSSE, prevRes = res.SSE, res
	}
	return maxK, prevRes
}

// sameResult reports the first difference between two results, compared
// bit for bit; "" means identical.
func sameResult(got, want *Result) string {
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("iterations %d, oracle %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
		return fmt.Sprintf("SSE %v, oracle %v", got.SSE, want.SSE)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			return fmt.Sprintf("point %d assigned %d, oracle %d", i, got.Assignment[i], want.Assignment[i])
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		return fmt.Sprintf("%d centroids, oracle %d", len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for d := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				return fmt.Sprintf("centroid %d = %v, oracle %v", c, got.Centroids[c], want.Centroids[c])
			}
		}
	}
	return ""
}

func clonePoints(ps []Point) []Point {
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = clonePoint(p)
	}
	return out
}

// randomPoints draws n points of the given dimension. With grid > 0 the
// coordinates are integers in [0, grid), so duplicate points and points
// exactly equidistant from two centroids are common; otherwise they are
// continuous in [0, 10).
func randomPoints(r *rand.Rand, n, dim, grid int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			if grid > 0 {
				p[d] = float64(r.Intn(grid))
			} else {
				p[d] = 10 * r.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

// Property: the pruned lloyd equals the plain oracle bit for bit —
// assignments, centroids, SSE and Iterations — from the same starting
// centroids, over 1-D and 2-D inputs, every k from 1 to n, duplicate
// points, exact ties, and starts that leave a cluster empty mid-run.
func TestLloydMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	emptied := 0
	for trial := 0; trial < 400; trial++ {
		dim := 1 + trial%2
		grid := []int{0, 3, 6, 20}[trial%4]
		n := 1 + r.Intn(40)
		pts := randomPoints(r, n, dim, grid)
		for k := 1; k <= n; k++ {
			// Starting centroids: k of the points (as k-means++ picks
			// them, duplicates included) or, every third k, arbitrary
			// positions that may start or end with an empty cluster.
			start := make([]Point, k)
			for c := range start {
				if k%3 == 0 {
					start[c] = randomPoints(r, 1, dim, grid)[0]
				} else {
					start[c] = clonePoint(pts[r.Intn(n)])
				}
			}
			maxIter := 1 + r.Intn(30)
			want := oracleLloyd(pts, clonePoints(start), maxIter)
			got := prunedLloyd(t, pts, clonePoints(start), maxIter)
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("trial %d (n=%d dim=%d grid=%d k=%d maxIter=%d): %s",
					trial, n, dim, grid, k, maxIter, diff)
			}
			if clusterEmptiedMidRun(pts, start, want) {
				emptied++
			}
		}
	}
	if emptied == 0 {
		t.Error("no trial emptied a cluster mid-run; the corpus does not cover that case")
	}
}

// clusterEmptiedMidRun reports whether some cluster that had members
// under the starting centroids has none in the final result.
func clusterEmptiedMidRun(pts, start []Point, res *Result) bool {
	had := make([]bool, len(start))
	for _, p := range pts {
		c, _ := Nearest(start, p)
		had[c] = true
	}
	for c, size := range res.ClusterSizes() {
		if had[c] && size == 0 {
			return true
		}
	}
	return false
}

// Points exactly halfway between two centroids go to the lower index,
// as in the plain scan, through every iteration.
func TestLloydEquidistantTies(t *testing.T) {
	pts := []Point{{0}, {1}, {2}, {3}, {4}, {1}, {3}, {2}, {2}}
	for _, start := range [][]Point{
		{{0}, {2}, {4}},
		{{4}, {2}, {0}},
		{{1}, {3}},
		{{3}, {1}},
		{{2}, {2}, {2}},
	} {
		want := oracleLloyd(pts, clonePoints(start), 50)
		got := prunedLloyd(t, pts, clonePoints(start), 50)
		if diff := sameResult(got, want); diff != "" {
			t.Errorf("start %v: %s", start, diff)
		}
	}
}

// Property: Run and ChooseK, with their seeding and concurrent restarts,
// equal the serial oracle bit for bit on random inputs.
func TestRunAndChooseKMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + trial%2
		grid := []int{0, 4, 12}[trial%3]
		n := 2 + r.Intn(200)
		pts := randomPoints(r, n, dim, grid)
		cfg := Config{Seed: int64(trial), Restarts: 1 + r.Intn(5), MaxIter: 1 + r.Intn(60)}

		run := cfg
		run.K = 1 + r.Intn(n)
		got, err := Run(pts, run)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, oracleRun(pts, run)); diff != "" {
			t.Fatalf("trial %d Run(n=%d k=%d): %s", trial, n, run.K, diff)
		}

		maxK := 1 + r.Intn(12)
		k, res, err := ChooseK(pts, maxK, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantK, want := oracleChooseK(pts, maxK, 0.05, cfg)
		if k != wantK {
			t.Fatalf("trial %d ChooseK = %d, oracle %d", trial, k, wantK)
		}
		if diff := sameResult(res, want); diff != "" {
			t.Fatalf("trial %d ChooseK(k=%d): %s", trial, k, diff)
		}
	}
}

// headlineGroups generates the paper's headline workload (12 h at 1.6
// tasks/s against Table II / 20, seed 42) and returns each priority
// group's (log CPU, log Mem) points, the input characterization clusters.
func headlineGroups(t testing.TB) [trace.NumGroups][]Point {
	t.Helper()
	machines := energy.TableIIMachineTypes()
	for i := range machines {
		machines[i].Count = max(machines[i].Count/20, 1)
	}
	cfg := trace.DefaultConfig(42)
	cfg.Horizon = 12 * trace.Hour
	cfg.RatePerS = 1.6
	cfg.Machines = machines
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var groups [trace.NumGroups][]Point
	for _, task := range tr.Tasks {
		g := task.Group().Index()
		groups[g] = append(groups[g], Point{math.Log(task.CPU), math.Log(task.Mem)})
	}
	return groups
}

// The real inputs: each priority group of the headline trace, clustered
// with the characterization's settings (k up to 12, 5% elbow, 4
// restarts), equals the oracle bit for bit.
func TestChooseKMatchesOracleOnHeadlineGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the headline-trace oracle run in -short mode")
	}
	for g, pts := range headlineGroups(t) {
		cfg := Config{Seed: 42 + int64(trace.Groups()[g]), Restarts: 4}
		k, res, err := ChooseK(pts, 12, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantK, want := oracleChooseK(pts, 12, 0.05, cfg)
		if k != wantK {
			t.Fatalf("group %d (%d points): ChooseK = %d, oracle %d", g, len(pts), k, wantK)
		}
		if diff := sameResult(res, want); diff != "" {
			t.Fatalf("group %d (%d points): %s", g, len(pts), diff)
		}
	}
}

// jobPoints draws n points the way a trace's tasks arrive: in jobs that
// share one point, with up to `active` jobs open at once so their runs
// interleave, and with points drawn from a small grid so unrelated jobs
// can repeat a point too.
func jobPoints(r *rand.Rand, n, dim, active, grid int) []Point {
	open := make([]Point, active)
	left := make([]int, active)
	pts := make([]Point, 0, n)
	for len(pts) < n {
		j := r.Intn(active)
		if left[j] == 0 {
			open[j] = randomPoints(r, 1, dim, grid)[0]
			left[j] = 1 + r.Intn(20)
		}
		left[j]--
		pts = append(pts, clonePoint(open[j]))
	}
	return pts
}

// The index keeps one entry per distinct bit pattern in first-occurrence
// order, and its runs spell out the input in order.
func TestPointSetIndex(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pts := []Point{{1, 2}, {1, 2}, {3, 4}, {1, 2}, {0, 0}, {negZero, 0}, {3, 4}, {3, 4}}
	ps, err := newPointSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantDistinct := []Point{{1, 2}, {3, 4}, {0, 0}, {negZero, 0}}
	if len(ps.distinct) != len(wantDistinct) {
		t.Fatalf("%d distinct points, want %d", len(ps.distinct), len(wantDistinct))
	}
	for u, p := range wantDistinct {
		if keyOf(ps.distinct[u]) != keyOf(p) {
			t.Errorf("distinct[%d] = %v, want %v", u, ps.distinct[u], p)
		}
	}
	wantRuns := []run{{0, 2}, {1, 1}, {0, 1}, {2, 1}, {3, 1}, {1, 2}}
	if fmt.Sprint(ps.runs) != fmt.Sprint(wantRuns) {
		t.Errorf("runs = %v, want %v", ps.runs, wantRuns)
	}
	if _, err := newPointSet([]Point{{1, 2}, {1}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	wide := []Point{{1, 2, 3}, {1, 2, 4}, {1, 2, 3}}
	if ps, _ := newPointSet(wide); len(ps.distinct) != 2 {
		t.Errorf("3-D points: %d distinct, want 2", len(ps.distinct))
	}
}

// Property: on job-structured inputs — runs of repeats interleaved across
// jobs, points shared by unrelated jobs, all-identical sets, and k above
// the distinct count, where k-means++ finds every point already chosen —
// lloyd, Run and ChooseK equal the per-point oracle bit for bit, in 1-D
// and 2-D.
func TestDuplicateHeavyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	aboveDistinct := 0
	for trial := 0; trial < 150; trial++ {
		dim := 1 + trial%2
		n := 2 + r.Intn(300)
		var pts []Point
		if trial%5 == 0 {
			p := randomPoints(r, 1, dim, 0)[0]
			for range n {
				pts = append(pts, clonePoint(p))
			}
		} else {
			pts = jobPoints(r, n, dim, 1+r.Intn(4), []int{0, 3, 8}[trial%3])
		}
		ps, err := newPointSet(pts)
		if err != nil {
			t.Fatal(err)
		}
		distinct := len(ps.distinct)

		k := 1 + r.Intn(min(n, distinct+3))
		if k > distinct {
			aboveDistinct++
		}
		start := make([]Point, k)
		for c := range start {
			start[c] = clonePoint(pts[r.Intn(n)])
		}
		maxIter := 1 + r.Intn(40)
		if diff := sameResult(ps.lloyd(clonePoints(start), maxIter), oracleLloyd(pts, clonePoints(start), maxIter)); diff != "" {
			t.Fatalf("trial %d lloyd(n=%d distinct=%d k=%d): %s", trial, n, distinct, k, diff)
		}

		cfg := Config{K: k, Seed: int64(trial), Restarts: 1 + r.Intn(4), MaxIter: 1 + r.Intn(60)}
		got, err := Run(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, oracleRun(pts, cfg)); diff != "" {
			t.Fatalf("trial %d Run(n=%d distinct=%d k=%d): %s", trial, n, distinct, k, diff)
		}

		maxK := 1 + r.Intn(min(n, distinct+3))
		gotK, res, err := ChooseK(pts, maxK, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantK, want := oracleChooseK(pts, maxK, 0.05, cfg)
		if gotK != wantK {
			t.Fatalf("trial %d ChooseK = %d, oracle %d", trial, gotK, wantK)
		}
		if diff := sameResult(res, want); diff != "" {
			t.Fatalf("trial %d ChooseK(k=%d): %s", trial, gotK, diff)
		}
	}
	if aboveDistinct == 0 {
		t.Error("no trial drew k above the distinct count; the corpus does not cover k-means++'s total == 0 branch")
	}
}
