// Package kmeans implements the K-means clustering algorithm with
// k-means++ seeding, Lloyd iterations, and the cluster-count selection
// heuristics used by HARMONY's task characterization (Section V of the
// paper): the workload is divided into task classes whose centroids later
// drive container sizing and runtime classification.
package kmeans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"harmony/internal/fanout"
	"harmony/internal/stats"
)

// Point is a feature vector.
type Point []float64

// Result holds the outcome of one clustering run.
type Result struct {
	Centroids  []Point // k centroids
	Assignment []int   // cluster index per input point
	SSE        float64 // sum of squared distances to assigned centroids
	Iterations int     // Lloyd iterations executed
}

// Config controls a clustering run.
type Config struct {
	K        int
	MaxIter  int   // Lloyd iteration cap (default 100)
	Seed     int64 // RNG seed for k-means++ initialization
	Restarts int   // independent restarts; best SSE wins (default 1)
}

var (
	// ErrNoPoints is returned when the input is empty.
	ErrNoPoints = errors.New("kmeans: no points")
	// ErrBadK is returned when K is out of range.
	ErrBadK = errors.New("kmeans: k must be in [1, len(points)]")
	// ErrDimMismatch is returned when points have differing dimensions.
	ErrDimMismatch = errors.New("kmeans: inconsistent point dimensions")
)

// Run clusters points into cfg.K clusters and returns the best result over
// cfg.Restarts independent k-means++ initializations.
func Run(points []Point, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.K < 1 || cfg.K > len(points) {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, len(points))
	}
	ps, err := newPointSet(points)
	if err != nil {
		return nil, err
	}
	return ps.cluster(cfg), nil
}

// pointSet is an input point set with its distinct points indexed. The
// tasks of a job share one resource request, so a priority group's
// (log CPU, log Mem) points repeat heavily; identical points always get
// identical distances, bounds and assignments, so the distance work runs
// once per distinct point. Everything whose floating-point summation
// order decides the result — member sums, the k-means++ draw, SSE —
// still walks every point in input order.
type pointSet struct {
	points   []Point // every input point, in input order
	distinct []Point // the distinct points, in first-occurrence order
	runs     []run   // each input point's distinct index, run-length encoded
}

// run is a maximal stretch of consecutive input points that are all
// copies of distinct[of]: a job's tasks arrive together.
type run struct{ of, n int }

// addN returns s with v added n times, one addition after another: the
// rounding of adding v once per point of a run.
func addN(s, v float64, n int) float64 {
	for ; n > 0; n-- {
		s += v
	}
	return s
}

// newPointSet checks that the non-empty points share one dimension and
// indexes them by their exact float64 bits, so two points share an entry
// only if every coordinate has the same bit pattern.
func newPointSet(points []Point) (*pointSet, error) {
	dim := len(points[0])
	ps := &pointSet{points: points}
	seen := make(map[bitsKey]int)
	for _, p := range points {
		if len(p) != dim {
			return nil, ErrDimMismatch
		}
		key := keyOf(p)
		u, ok := seen[key]
		if !ok {
			u = len(ps.distinct)
			seen[key] = u
			ps.distinct = append(ps.distinct, p)
		}
		if last := len(ps.runs) - 1; last >= 0 && ps.runs[last].of == u {
			ps.runs[last].n++
		} else {
			ps.runs = append(ps.runs, run{of: u, n: 1})
		}
	}
	return ps, nil
}

// bitsKey is a point's exact bit pattern as a map key: the first two
// coordinates inline (the characterization's points have one or two),
// any further ones packed into rest.
type bitsKey struct {
	x0, x1 uint64
	rest   string
}

func keyOf(p Point) bitsKey {
	var k bitsKey
	if len(p) > 0 {
		k.x0 = math.Float64bits(p[0])
	}
	if len(p) > 1 {
		k.x1 = math.Float64bits(p[1])
	}
	if len(p) > 2 {
		rest := make([]byte, 8*(len(p)-2))
		for d, v := range p[2:] {
			binary.LittleEndian.PutUint64(rest[8*d:], math.Float64bits(v))
		}
		k.rest = string(rest)
	}
	return k
}

// cluster is Run over an indexed point set; cfg.K is already valid.
func (ps *pointSet) cluster(cfg Config) *Result {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}

	// Every restart's seeds come from the one RNG in restart order (Lloyd
	// draws nothing), then the Lloyd passes run concurrently into their
	// own slots and the best is kept by strict < in restart order.
	r := stats.NewRNG(cfg.Seed)
	seeds := make([][]Point, cfg.Restarts)
	for a := range seeds {
		seeds[a] = ps.seedPlusPlus(cfg.K, r)
	}
	results := make([]*Result, cfg.Restarts)
	fanout.Each(cfg.Restarts, func(a int) {
		results[a] = ps.lloyd(seeds[a], cfg.MaxIter)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.SSE < best.SSE {
			best = res
		}
	}
	return best
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy:
// each next centroid is drawn with probability proportional to its squared
// distance from the nearest already-chosen centroid. Distances are kept
// per distinct point; the draws, the total and the cumulative scan are
// over every point in input order.
func (ps *pointSet) seedPlusPlus(k int, r *stats.RNG) []Point {
	points, n := ps.points, len(ps.points)
	centroids := make([]Point, 0, k)
	first := points[r.Intn(n)]
	centroids = append(centroids, clonePoint(first))

	d2 := make([]float64, len(ps.distinct))
	for u, p := range ps.distinct {
		d2[u] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, rn := range ps.runs {
			total = addN(total, d2[rn.of], rn.n)
		}
		var next Point
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			next = points[r.Intn(n)]
		} else {
			x := r.Float64() * total
			acc := 0.0
			idx, i := n-1, 0
		draw:
			for _, rn := range ps.runs {
				for j := 0; j < rn.n; j++ {
					acc += d2[rn.of]
					if x < acc {
						idx = i + j
						break draw
					}
				}
				i += rn.n
			}
			next = points[idx]
		}
		centroids = append(centroids, clonePoint(next))
		for u, p := range ps.distinct {
			if d := sqDist(p, next); d < d2[u] {
				d2[u] = d
			}
		}
	}
	return centroids
}

// Bound margins for lloyd. boundSlack rounds every bound outward after
// each floating-point step: it is far above the few-ulp error of one
// sqrt, add or multiply, so upper bounds stay ≥ and lower bounds stay ≤
// the exact distances they bound. skipMargin is how much nearer, in
// relative terms, the assigned centroid must provably be before a point
// may skip the scan: far above sqDist's rounding error, so a skipped
// point is one whose full scan could only have returned the centroid it
// already has.
const (
	boundSlack = 1e-12
	skipMargin = 1e-9
)

// lloyd runs Lloyd iterations to convergence or maxIter with Hamerly's
// bound pruning ("Making k-means even faster", SDM 2010): a point whose
// bounds prove it is still nearest to its centroid skips the scan, and
// every other point is scanned in full with the plain strict-<,
// lowest-index rule. Bounds and assignments are kept per distinct point,
// which is exact: identical points see identical arithmetic. Assignments,
// centroids, SSE and Iterations are therefore bit-identical to plain
// Lloyd's: the centroid update is the same summation over every point in
// input order, and empty clusters keep their position.
func (ps *pointSet) lloyd(centroids []Point, maxIter int) *Result {
	u, k, dim := len(ps.distinct), len(centroids), len(ps.points[0])
	h := &hamerly{
		assign: make([]int, u),
		upper:  make([]float64, u),
		lower:  make([]float64, u),
		half:   make([]float64, k),
		moved:  make([]float64, k),
		sums:   make([]float64, k*dim),
		counts: make([]int, k),
		dirty:  make([]bool, k),
	}
	for c := range h.dirty {
		h.dirty[c] = true // the first pass forms every cluster
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		// Plain Lloyd starts unassigned, so its first iteration scans
		// every point and always changes something.
		if iter == 0 {
			h.scanAll(ps.distinct, centroids)
		} else if !h.reassign(ps.distinct, centroids) {
			break
		}
		h.accumulate(ps)
		h.update(centroids)
	}

	// SSE sums each point's squared distance in input order; identical
	// points contribute identical terms, computed once.
	d2 := make([]float64, u)
	for v, p := range ps.distinct {
		d2[v] = sqDist(p, centroids[h.assign[v]])
	}
	sse := 0.0
	assignment := make([]int, 0, len(ps.points))
	for _, rn := range ps.runs {
		sse = addN(sse, d2[rn.of], rn.n)
		for j := 0; j < rn.n; j++ {
			assignment = append(assignment, h.assign[rn.of])
		}
	}
	return &Result{
		Centroids:  centroids,
		Assignment: assignment,
		SSE:        sse,
		Iterations: iter,
	}
}

// hamerly is lloyd's state. For distinct point x assigned to centroid a,
// upper[x] ≥ d(x, a) and lower[x] ≤ d(x, c) for every c ≠ a; for
// centroid c, half[c] ≤ half the distance to its nearest other centroid
// and moved[c] ≥ the distance it moved in the last update. sums and
// counts are the member sums of the last assignment pass; dirty marks
// the clusters whose members that pass changed.
type hamerly struct {
	assign       []int // per distinct point
	upper, lower []float64
	half, moved  []float64
	sums         []float64 // k×dim, row c is cluster c
	counts       []int
	dirty        []bool
}

// scanAll assigns every point by full scan and sets its bounds exactly.
func (h *hamerly) scanAll(points, centroids []Point) {
	for i, p := range points {
		c, d1, d2 := nearestTwo(p, centroids)
		h.assign[i] = c
		h.upper[i] = roundUp(math.Sqrt(d1))
		h.lower[i] = roundDown(math.Sqrt(d2))
	}
}

// reassign runs one pruned assignment pass: each point's bounds first
// absorb the last centroid moves, and only points whose bounds cannot
// prove their assignment are rescanned. It reports whether any
// assignment changed.
func (h *hamerly) reassign(points, centroids []Point) bool {
	assign, upper, lower, half := h.assign, h.upper, h.lower, h.half
	for c, cen := range centroids {
		nearest := math.Inf(1)
		for o, other := range centroids {
			if o != c {
				if d := sqDist(cen, other); d < nearest {
					nearest = d
				}
			}
		}
		half[c] = roundDown(math.Sqrt(nearest) / 2)
	}
	// A point's lower bound loses the largest move among the other
	// centroids: the second-largest for members of the farthest mover.
	far, farMove, secondMove := 0, 0.0, 0.0
	for c, m := range h.moved {
		if m > farMove {
			far, farMove, secondMove = c, m, farMove
		} else if m > secondMove {
			secondMove = m
		}
	}

	changed := false
	for i, p := range points {
		a := assign[i]
		upper[i] = roundUp(upper[i] + h.moved[a])
		drop := farMove
		if a == far {
			drop = secondMove
		}
		lower[i] = roundDown(lower[i] - drop)

		bound := half[a]
		if lower[i] > bound {
			bound = lower[i]
		}
		if upper[i]*(1+skipMargin) >= bound {
			// Tighten the upper bound to the exact distance and retry.
			upper[i] = roundUp(math.Sqrt(sqDist(p, centroids[a])))
			if upper[i]*(1+skipMargin) >= bound {
				c, d1, d2 := nearestTwo(p, centroids)
				upper[i] = roundUp(math.Sqrt(d1))
				lower[i] = roundDown(math.Sqrt(d2))
				if c != a {
					assign[i] = c
					h.dirty[a], h.dirty[c] = true, true
					changed = true
				}
			}
		}
	}
	return changed
}

// accumulate recomputes the member sum and count of every dirty cluster,
// adding its points in input order so each sum is the plain update's
// summation. A clean cluster has the same members in the same order, so
// its kept sum is the one those additions would produce.
func (h *hamerly) accumulate(ps *pointSet) {
	dim := len(ps.points[0])
	for c, dirty := range h.dirty {
		if dirty {
			clear(h.sums[c*dim:][:dim])
			h.counts[c] = 0
		}
	}
	for _, rn := range ps.runs {
		c := h.assign[rn.of]
		if !h.dirty[c] {
			continue
		}
		p := ps.distinct[rn.of]
		h.counts[c] += rn.n
		row := h.sums[c*len(p):][:len(p)]
		for d, v := range p {
			row[d] = addN(row[d], v, rn.n)
		}
	}
}

// update moves every non-empty dirty cluster's centroid to its members'
// mean and records how far it moved, then marks every cluster clean. A
// clean cluster's mean is its current centroid, so it moves 0; empty
// clusters keep their position.
func (h *hamerly) update(centroids []Point) {
	for c, cen := range centroids {
		h.moved[c] = 0
		if !h.dirty[c] {
			continue
		}
		h.dirty[c] = false
		if h.counts[c] == 0 {
			continue
		}
		row := h.sums[c*len(cen):][:len(cen)]
		shift := 0.0
		for d := range cen {
			v := row[d] / float64(h.counts[c])
			diff := v - cen[d]
			shift += diff * diff
			cen[d] = v
		}
		h.moved[c] = roundUp(math.Sqrt(shift))
	}
}

// nearestTwo scans every centroid and returns the nearest one by the
// plain rule (strict <, so the lowest index wins a tie) with its squared
// distance, and the second-smallest squared distance (+Inf when k = 1).
func nearestTwo(p Point, centroids []Point) (best int, d1, d2 float64) {
	best, d1, d2 = 0, math.Inf(1), math.Inf(1)
	for c, cen := range centroids {
		d := sqDist(p, cen)
		if d < d1 {
			best, d1, d2 = c, d, d1
		} else if d < d2 {
			d2 = d
		}
	}
	return best, d1, d2
}

// roundUp and roundDown widen a computed bound by boundSlack so that it
// stays a bound despite the rounding error of the step that produced it.
// A negative lower bound stays negative, so it never lets a point skip.
func roundUp(v float64) float64   { return v * (1 + boundSlack) }
func roundDown(v float64) float64 { return v * (1 - boundSlack) }

// Nearest returns the index of the centroid closest (Euclidean) to p and
// the distance to it. It returns (-1, +Inf) when centroids is empty.
func Nearest(centroids []Point, p Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for c, cen := range centroids {
		if d := sqDist(p, cen); d < bestD {
			best, bestD = c, d
		}
	}
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD)
}

// ClusterSizes returns the number of points assigned to each cluster.
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, len(r.Centroids))
	for _, c := range r.Assignment {
		sizes[c]++
	}
	return sizes
}

// ClusterStats returns, for each cluster and feature dimension, the mean
// and standard deviation of the member points. These are the mean±stddev
// bars of Figures 13, 15 and 17, and feed container sizing (Eq. 3).
func (r *Result) ClusterStats(points []Point) (means, stddevs []Point) {
	k := len(r.Centroids)
	if k == 0 || len(points) == 0 {
		return nil, nil
	}
	dim := len(points[0])
	sums := make([][]float64, k)
	sqs := make([][]float64, k)
	counts := make([]int, k)
	for c := 0; c < k; c++ {
		sums[c] = make([]float64, dim)
		sqs[c] = make([]float64, dim)
	}
	for i, p := range points {
		c := r.Assignment[i]
		counts[c]++
		for d := 0; d < dim; d++ {
			sums[c][d] += p[d]
			sqs[c][d] += p[d] * p[d]
		}
	}
	means = make([]Point, k)
	stddevs = make([]Point, k)
	for c := 0; c < k; c++ {
		means[c] = make(Point, dim)
		stddevs[c] = make(Point, dim)
		if counts[c] == 0 {
			continue
		}
		n := float64(counts[c])
		for d := 0; d < dim; d++ {
			m := sums[c][d] / n
			means[c][d] = m
			v := sqs[c][d]/n - m*m
			if v < 0 {
				v = 0
			}
			stddevs[c][d] = math.Sqrt(v)
		}
	}
	return means, stddevs
}

// ChooseK runs Run for k = 1..maxK and returns the smallest k past the
// "elbow": the first k whose relative SSE improvement over k-1 drops below
// minGain (e.g. 0.1 for 10%). This mirrors the paper's "no significant
// benefit from increasing k" selection rule. The distinct-point index is
// built once and shared by every k.
func ChooseK(points []Point, maxK int, minGain float64, cfg Config) (int, *Result, error) {
	if maxK < 1 {
		return 0, nil, ErrBadK
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	if maxK == 0 {
		return 0, nil, nil // no points, no clusters
	}
	ps, err := newPointSet(points)
	if err != nil {
		return 0, nil, err
	}
	var (
		prevSSE float64
		prevRes *Result
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		res := ps.cluster(c)
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - res.SSE) / prevSSE
			}
			if gain < minGain {
				return k - 1, prevRes, nil
			}
		}
		prevSSE, prevRes = res.SSE, res
	}
	return maxK, prevRes, nil
}

// Silhouette returns the mean silhouette coefficient of the clustering,
// a quality measure in [-1, 1]: near 1 means points sit well inside their
// clusters, near 0 means clusters touch, negative means misassignment.
// Clusters with a single member contribute 0 (the standard convention).
// It is O(n²) and intended for characterization-quality reporting, not
// hot paths.
func (r *Result) Silhouette(points []Point) float64 {
	n := len(points)
	if n == 0 || len(r.Centroids) < 2 {
		return 0
	}
	sizes := r.ClusterSizes()
	total := 0.0
	for i, p := range points {
		own := r.Assignment[i]
		if sizes[own] <= 1 {
			continue // silhouette of a singleton is 0
		}
		// a = mean distance to own cluster (excluding self);
		// b = smallest mean distance to another cluster.
		sums := make([]float64, len(r.Centroids))
		for j, q := range points {
			if i == j {
				continue
			}
			sums[r.Assignment[j]] += math.Sqrt(sqDist(p, q))
		}
		a := sums[own] / float64(sizes[own]-1)
		b := math.Inf(1)
		for c := range sums {
			if c == own || sizes[c] == 0 {
				continue
			}
			if m := sums[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

func sqDist(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clonePoint(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}
