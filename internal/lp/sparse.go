// Sparse revised simplex with product-form (eta) basis updates — the
// production engine behind Solve and SolveWarm.
//
// The CBS-RELAX constraint matrix is overwhelmingly sparse: every
// x(m,n,t) column touches a capacity row pair and one scheduled-count
// row, every z(m,t) column a handful of linkage rows. The dense tableau
// (retained in lp.go as SolveDense, the differential-testing reference)
// pays O(m·n) per pivot regardless; the revised simplex below stores the
// matrix column-wise, represents the basis inverse as a product of
// sparse eta matrices folded periodically into dense inverse columns,
// and re-prices from scratch each iteration, so a pivot costs roughly
// O(nnz(A) + m·|etas| + m²/refactorEvery).
//
// SolveWarm additionally accepts the Basis captured by a previous solve
// of a structurally identical problem (same variables, constraints, and
// coefficients; only the objective and right-hand side may differ).
// Consecutive MPC control periods are exactly that — one shifted
// forecast window apart — so the previous optimal basis is usually
// optimal or a few pivots away. A warm basis is verified (its stored
// inverse must invert this problem's basis columns) and checked for
// primal feasibility under the new right-hand side; on any mismatch the
// solver silently falls back to a cold Big-M start.
package lp

import (
	"errors"
	"math"
)

// Refactor policy: the eta file is folded into dense basis-inverse
// columns once applying the chain costs clearly more than a dense
// BTRAN/FTRAN would (total eta nonzeros past refactorNNZFactor·m²), or
// at a hard pivot cap that bounds accumulated roundoff. For the sparse
// CBS-RELAX instances the chain typically stays far below the nnz
// threshold for an entire solve, which is exactly why the revised
// simplex beats the dense tableau here.
const (
	refactorMaxEtas   = 4096
	refactorNNZFactor = 4
)

// spCol is one sparse constraint-matrix column (row indices ascending).
type spCol struct {
	idx []int32
	val []float64
}

func unitCol(row int, v float64) spCol {
	return spCol{idx: []int32{int32(row)}, val: []float64{v}}
}

// eta is one product-form pivot update: the transformed entering column
// at pivot row r, stored with its diagonal 1/pivot entry included.
// Applying it to v replaces v[r] with val_r·v_r and adds val_i·v_r to
// every off-pivot entry i.
type eta struct {
	r   int
	idx []int32
	val []float64
}

// Basis is the reusable state captured from an optimal solve: the basic
// column set, its inverse, and the right-hand side and basic values at
// capture time (needed to repair primal feasibility when the next
// problem's RHS has moved). SolveWarm uses it to seed the next solve of
// a structurally identical problem. It is opaque and immutable from the
// caller's point of view; a Basis may be reused for any number of warm
// solves.
type Basis struct {
	m, n int
	cols []int
	binv [][]float64 // column-major: binv[j] is column j of B^{-1}
	b    []float64   // standardized RHS the basis was optimal for
	xb   []float64   // basic values under b (all >= 0)
}

// std is a Problem in computational standard form: non-negative RHS,
// slack and artificial columns appended, costs carried as (real, Big-M)
// pairs, and the matrix stored column-wise.
type std struct {
	m, n       int
	cols       []spCol
	b          []float64
	cR, cM     []float64
	artificial []bool
	structural int
	initBasis  []int
}

// standardize mirrors the dense tableau's setup exactly: rows with
// negative RHS are flipped, LE rows get a +1 slack, GE rows a -1 surplus
// plus a +1 artificial, EQ rows a +1 artificial; artificial columns
// carry cost (0, -1) in (real, M) terms.
func standardize(p *Problem) *std {
	m := len(p.Constraints)
	type nrow struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	rows := make([]nrow, m)
	for i, c := range p.Constraints {
		rows[i] = nrow{coeffs: c.Coeffs, sense: c.Sense, rhs: c.RHS}
		if c.RHS < 0 {
			flipped := make([]float64, len(c.Coeffs))
			for j, v := range c.Coeffs {
				flipped[j] = -v
			}
			rows[i].coeffs = flipped
			rows[i].rhs = -c.RHS
			switch c.Sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
	}
	slacks, arts := 0, 0
	for _, r := range rows {
		switch r.sense {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	n := p.NumVars + slacks + arts
	s := &std{
		m: m, n: n,
		cols:       make([]spCol, n),
		b:          make([]float64, m),
		cR:         make([]float64, n),
		cM:         make([]float64, n),
		artificial: make([]bool, n),
		structural: p.NumVars,
		initBasis:  make([]int, m),
	}
	copy(s.cR, p.Objective)
	// Row-major append keeps each column's row indices ascending.
	for i, r := range rows {
		s.b[i] = r.rhs
		for j, v := range r.coeffs {
			if v != 0 {
				s.cols[j].idx = append(s.cols[j].idx, int32(i))
				s.cols[j].val = append(s.cols[j].val, v)
			}
		}
	}
	slackCol := p.NumVars
	artCol := p.NumVars + slacks
	for i, r := range rows {
		switch r.sense {
		case LE:
			s.cols[slackCol] = unitCol(i, 1)
			s.initBasis[i] = slackCol
			slackCol++
		case GE:
			s.cols[slackCol] = unitCol(i, -1)
			slackCol++
			s.cols[artCol] = unitCol(i, 1)
			s.artificial[artCol] = true
			s.cM[artCol] = -1
			s.initBasis[i] = artCol
			artCol++
		case EQ:
			s.cols[artCol] = unitCol(i, 1)
			s.artificial[artCol] = true
			s.cM[artCol] = -1
			s.initBasis[i] = artCol
			artCol++
		}
	}
	return s
}

// sparseSolver is the revised-simplex iteration state.
type sparseSolver struct {
	*std
	basis  []int
	inB    []bool
	binv   [][]float64 // column-major; nil while the inverse is the identity
	etas   []eta
	etaNNZ int       // total nonzeros across the eta file
	xB     []float64 // current basic values B^{-1}b

	uR, uM []float64 // BTRAN scratch (c_B transformed through the etas)
	yR, yM []float64 // dual pair
	w      []float64 // FTRAN scratch (transformed entering column)
	rho    []float64 // BTRAN scratch for one row of B^{-1} (dual simplex)
	iters  int
	// mActive is whether any artificial column is currently basic; once
	// the artificials are driven out the Big-M dual components are
	// identically zero and the M half of pricing is skipped.
	mActive bool
}

func newSparseSolver(s *std) *sparseSolver {
	return &sparseSolver{
		std:   s,
		basis: make([]int, s.m),
		inB:   make([]bool, s.n),
		xB:    make([]float64, s.m),
		uR:    make([]float64, s.m),
		uM:    make([]float64, s.m),
		yR:    make([]float64, s.m),
		yM:    make([]float64, s.m),
		w:     make([]float64, s.m),
		rho:   make([]float64, s.m),
	}
}

// refreshMActive rescans the basis for basic artificials.
func (sv *sparseSolver) refreshMActive() {
	sv.mActive = false
	for _, bj := range sv.basis {
		if sv.artificial[bj] {
			sv.mActive = true
			return
		}
	}
}

// startCold installs the all-slack/artificial Big-M starting basis.
func (sv *sparseSolver) startCold() {
	copy(sv.basis, sv.initBasis)
	copy(sv.xB, sv.b)
	for i := range sv.inB {
		sv.inB[i] = false
	}
	for _, bj := range sv.basis {
		sv.inB[bj] = true
	}
	sv.binv = nil
	sv.etas = sv.etas[:0]
	sv.etaNNZ = 0
	sv.refreshMActive()
}

// startWarm seeds the solver from a previous basis. ok reports whether
// the basis matches this problem structurally (shape, and a stored
// inverse that actually inverts this problem's basis columns); feasible
// reports whether the basic values are non-negative under the new
// right-hand side. On ok && !feasible the caller may attempt the
// dual-simplex repair; on !ok it must startCold.
func (sv *sparseSolver) startWarm(wb *Basis) (ok, feasible bool) {
	if wb == nil || wb.m != sv.m || wb.n != sv.n ||
		len(wb.cols) != sv.m || len(wb.binv) != sv.m {
		return false, false
	}
	for i := range sv.inB {
		sv.inB[i] = false
	}
	for i, c := range wb.cols {
		if c < 0 || c >= sv.n || sv.inB[c] {
			return false, false
		}
		sv.basis[i] = c
		sv.inB[c] = true
	}
	// Deep-copy the inverse: refactoring mutates it in place, and the
	// caller may reuse the same Basis for another solve.
	sv.binv = make([][]float64, sv.m)
	for j, col := range wb.binv {
		if len(col) != sv.m {
			return false, false
		}
		sv.binv[j] = append([]float64(nil), col...)
	}
	sv.etas = sv.etas[:0]
	sv.etaNNZ = 0
	sv.refreshMActive()
	// The stored inverse must actually invert this problem's basis
	// columns: B⁻¹·A_basis[k] ≈ e_k. A structural mismatch — changed
	// coefficients, reordered rows, a flipped negative-RHS row — surfaces
	// here and forces a cold solve instead of a silently wrong answer.
	for k := 0; k < sv.m; k++ {
		sv.ftran(sv.cols[sv.basis[k]], sv.w)
		for i, v := range sv.w {
			want := 0.0
			if i == k {
				want = 1
			}
			if math.Abs(v-want) > 1e-6 {
				return false, false
			}
		}
	}
	// Primal feasibility for the new RHS: the previous optimal vertex
	// must still be a vertex of the shifted polytope.
	sv.computeXB()
	for _, v := range sv.xB {
		if v < -1e-7 {
			return true, false
		}
	}
	return true, true
}

// computeXB recomputes the basic values B⁻¹b. Callers guarantee the eta
// file is empty (fresh warm start or just-refactored state).
func (sv *sparseSolver) computeXB() {
	if sv.binv == nil {
		copy(sv.xB, sv.b)
		return
	}
	for i := range sv.xB {
		sv.xB[i] = 0
	}
	for i, bi := range sv.b {
		if bi == 0 {
			continue
		}
		col := sv.binv[i]
		for r := range sv.xB {
			sv.xB[r] += bi * col[r]
		}
	}
}

// ftran computes out = B⁻¹·a: the folded inverse first, then the eta
// file in application order.
func (sv *sparseSolver) ftran(a spCol, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if sv.binv == nil {
		for t, i := range a.idx {
			out[i] = a.val[t]
		}
	} else {
		for t, i := range a.idx {
			v := a.val[t]
			col := sv.binv[i]
			for r := range out {
				out[r] += v * col[r]
			}
		}
	}
	for k := range sv.etas {
		e := &sv.etas[k]
		t := out[e.r]
		if t == 0 {
			continue
		}
		out[e.r] = 0
		for q, i := range e.idx {
			out[i] += e.val[q] * t
		}
	}
}

// computeDuals computes the dual pair yᵀ = c_Bᵀ·B⁻¹ by BTRAN: transform
// c_B through the etas in reverse, then through the folded inverse. The
// Big-M half is skipped once no artificial is basic (c_B's M part, and
// hence y's, is identically zero from then on).
func (sv *sparseSolver) computeDuals() {
	for i, bj := range sv.basis {
		sv.uR[i] = sv.cR[bj]
	}
	for k := len(sv.etas) - 1; k >= 0; k-- {
		e := &sv.etas[k]
		var sR float64
		for q, i := range e.idx {
			sR += sv.uR[i] * e.val[q]
		}
		sv.uR[e.r] = sR
	}
	if sv.mActive {
		for i, bj := range sv.basis {
			sv.uM[i] = sv.cM[bj]
		}
		for k := len(sv.etas) - 1; k >= 0; k-- {
			e := &sv.etas[k]
			var sM float64
			for q, i := range e.idx {
				sM += sv.uM[i] * e.val[q]
			}
			sv.uM[e.r] = sM
		}
	}
	if sv.binv == nil {
		copy(sv.yR, sv.uR)
		if sv.mActive {
			copy(sv.yM, sv.uM)
		}
		return
	}
	if sv.mActive {
		for j := 0; j < sv.m; j++ {
			col := sv.binv[j]
			var sR, sM float64
			for i, c := range col {
				sR += sv.uR[i] * c
				sM += sv.uM[i] * c
			}
			sv.yR[j], sv.yM[j] = sR, sM
		}
		return
	}
	for j := 0; j < sv.m; j++ {
		col := sv.binv[j]
		var sR float64
		for i, c := range col {
			sR += sv.uR[i] * c
		}
		sv.yR[j] = sR
	}
}

// reducedCost prices one column against the current duals.
func (sv *sparseSolver) reducedCost(j int) (real, bigM float64) {
	col := &sv.cols[j]
	var dR float64
	for q, i := range col.idx {
		dR += sv.yR[i] * col.val[q]
	}
	if !sv.mActive {
		return sv.cR[j] - dR, sv.cM[j]
	}
	var dM float64
	for q, i := range col.idx {
		dM += sv.yM[i] * col.val[q]
	}
	return sv.cR[j] - dR, sv.cM[j] - dM
}

// chooseEntering mirrors the dense tableau's rules: Dantzig on the
// lexicographic (M, real) reduced cost with the same tie-breaking, Bland
// (lowest eligible index) once the grace budget is spent. Artificial
// columns never re-enter.
func (sv *sparseSolver) chooseEntering(bland bool) int {
	if bland {
		for j := 0; j < sv.n; j++ {
			if sv.inB[j] || sv.artificial[j] {
				continue
			}
			if r, mm := sv.reducedCost(j); betterThanZero(r, mm) {
				return j
			}
		}
		return -1
	}
	best := -1
	bestR, bestM := 0.0, 0.0
	for j := 0; j < sv.n; j++ {
		if sv.inB[j] || sv.artificial[j] {
			continue
		}
		r, mm := sv.reducedCost(j)
		if !betterThanZero(r, mm) {
			continue
		}
		if best < 0 || mm > bestM+eps || (math.Abs(mm-bestM) <= eps && r > bestR) {
			best, bestR, bestM = j, r, mm
		}
	}
	return best
}

// chooseLeaving runs the ratio test on the transformed entering column,
// breaking ties toward the smallest basic column index (Bland-safe).
func (sv *sparseSolver) chooseLeaving() int {
	leave := -1
	best := math.Inf(1)
	for i := 0; i < sv.m; i++ {
		if sv.w[i] > eps {
			ratio := sv.xB[i] / sv.w[i]
			if ratio < best-eps ||
				(math.Abs(ratio-best) <= eps && (leave < 0 || sv.basis[i] < sv.basis[leave])) {
				best = ratio
				leave = i
			}
		}
	}
	return leave
}

// pivot performs the basis exchange as an eta update: the basic values
// move along the entering direction, and B⁻¹ gains one sparse factor
// instead of a dense elimination pass.
func (sv *sparseSolver) pivot(row, col int) {
	pv := sv.w[row]
	inv := 1 / pv
	theta := sv.xB[row] * inv
	var idx []int32
	var val []float64
	for i, wi := range sv.w {
		if i == row || wi == 0 {
			continue
		}
		sv.xB[i] -= theta * wi
		idx = append(idx, int32(i))
		val = append(val, -wi*inv)
	}
	idx = append(idx, int32(row))
	val = append(val, inv)
	sv.xB[row] = theta
	sv.etas = append(sv.etas, eta{r: row, idx: idx, val: val})
	sv.etaNNZ += len(idx)
	leaving := sv.basis[row]
	sv.inB[leaving] = false
	sv.basis[row] = col
	sv.inB[col] = true
	if sv.mActive && sv.artificial[leaving] {
		// Entering columns are never artificial, so mActive only ever
		// turns off; rescan once the departing column was the last one.
		sv.refreshMActive()
	}
	if len(sv.etas) >= refactorMaxEtas || sv.etaNNZ > refactorNNZFactor*sv.m*sv.m {
		sv.refactor()
	}
}

// refactor folds the eta file into the dense basis-inverse columns and
// resynchronizes the basic values from the original right-hand side.
func (sv *sparseSolver) refactor() {
	if sv.binv == nil {
		//harmony:allow hotpathalloc one-time lazy init behind the nil check; reused across refactors
		sv.binv = make([][]float64, sv.m)
		for j := range sv.binv {
			col := make([]float64, sv.m) //harmony:allow hotpathalloc one-time lazy init behind the nil check; reused across refactors
			col[j] = 1
			sv.binv[j] = col
		}
	}
	for k := range sv.etas {
		e := &sv.etas[k]
		for _, col := range sv.binv {
			t := col[e.r]
			if t == 0 {
				continue
			}
			col[e.r] = 0
			for q, i := range e.idx {
				col[i] += e.val[q] * t
			}
		}
	}
	sv.etas = sv.etas[:0]
	sv.etaNNZ = 0
	sv.computeXB()
}

var (
	// errIterLimit aborts a run that exhausted its pivot budget; warm
	// paths treat it as "retry cold" rather than a user-facing error.
	errIterLimit = errors.New("lp: iteration limit exceeded")
	// errWarmRepair aborts the dual-simplex repair; the caller falls
	// back to a cold solve, which re-derives the correct verdict.
	errWarmRepair = errors.New("lp: warm-start repair abandoned")
)

// runBudget is the simplex loop with explicit iteration budgets; tests
// use it to force Bland's rule from the first pivot.
//
//harmony:hotpath
func (sv *sparseSolver) runBudget(maxIter, blandAfter int) error {
	for iter := 0; iter < maxIter; iter++ {
		sv.computeDuals()
		enter := sv.chooseEntering(iter >= blandAfter)
		if enter < 0 {
			return sv.checkFeasible()
		}
		sv.ftran(sv.cols[enter], sv.w)
		leave := sv.chooseLeaving()
		if leave < 0 {
			if err := sv.checkFeasible(); err != nil {
				return err
			}
			return ErrUnbounded
		}
		sv.iters++
		sv.pivot(leave, enter)
	}
	return errIterLimit
}

// btranRow computes sv.rho = e_rᵀ·B⁻¹, row r of the basis inverse (the
// pivot row generator for the dual simplex).
func (sv *sparseSolver) btranRow(r int) {
	// The M duals are unused on the artificial-free dual path, so their
	// scratch vector is free here.
	u := sv.uM
	for i := range u {
		u[i] = 0
	}
	u[r] = 1
	for k := len(sv.etas) - 1; k >= 0; k-- {
		e := &sv.etas[k]
		var s float64
		for q, i := range e.idx {
			s += u[i] * e.val[q]
		}
		u[e.r] = s
	}
	if sv.binv == nil {
		copy(sv.rho, u)
		return
	}
	for j := 0; j < sv.m; j++ {
		col := sv.binv[j]
		var s float64
		for i, c := range col {
			if u[i] != 0 {
				s += u[i] * c
			}
		}
		sv.rho[j] = s
	}
}

// runDual restores primal feasibility after an RHS change with dual
// simplex pivots: the basis must be dual feasible for the current
// objective (it was just re-optimized against the old RHS) and
// artificial-free. Any anomaly — dual unboundedness (an infeasibility
// proof the caller re-derives with a cold solve), a vanishing pivot,
// more than maxIter pivots — bails with errWarmRepair instead of
// guessing.
//
// Reduced costs are priced once and then updated incrementally across
// pivots (rc_j ← rc_j − θ_d·w_j). Drift in them cannot corrupt the
// answer: the basis and xB updates are exact regardless of which
// eligible pivot is chosen, and the primal cleanup that follows
// re-prices from scratch — stale rc only risks a longer path.
//
//harmony:hotpath
func (sv *sparseSolver) runDual(maxIter int) error {
	rc := make([]float64, sv.n)   //harmony:allow hotpathalloc per-solve pricing vector, not per-pivot
	wrow := make([]float64, sv.n) //harmony:allow hotpathalloc per-solve pricing vector, not per-pivot
	sv.computeDuals()
	for j := 0; j < sv.n; j++ {
		if sv.inB[j] || sv.artificial[j] {
			continue
		}
		r, _ := sv.reducedCost(j)
		if r > 0 {
			r = 0 // clamp post-optimal rounding drift
		}
		rc[j] = r
	}
	for iter := 0; ; iter++ {
		// Leaving row: most negative basic value.
		r, worst := -1, -1e-7
		for i, v := range sv.xB {
			if v < worst {
				r, worst = i, v
			}
		}
		if r < 0 {
			return nil // primal feasible again
		}
		if iter == maxIter {
			return errWarmRepair
		}
		sv.btranRow(r)
		// Entering column: dual ratio test over columns that can absorb
		// the infeasibility (pivot-row entry < 0), smallest |rc/w| wins,
		// ties toward the lowest column index.
		enter, bestRatio := -1, math.Inf(1)
		for j := 0; j < sv.n; j++ {
			if sv.inB[j] || sv.artificial[j] {
				continue
			}
			col := &sv.cols[j]
			var wj float64
			for q, i := range col.idx {
				wj += sv.rho[i] * col.val[q]
			}
			wrow[j] = wj
			if wj >= -eps {
				continue
			}
			ratio := rc[j] / wj
			if ratio < bestRatio-eps ||
				(math.Abs(ratio-bestRatio) <= eps && (enter < 0 || j < enter)) {
				bestRatio, enter = ratio, j
			}
		}
		if enter < 0 {
			return errWarmRepair
		}
		sv.ftran(sv.cols[enter], sv.w)
		if math.Abs(sv.w[r]) <= eps {
			return errWarmRepair
		}
		// Update reduced costs over the pre-pivot nonbasic set, then
		// give the departing column its post-pivot value −θ_d.
		theta := rc[enter] / wrow[enter]
		for j := 0; j < sv.n; j++ {
			if sv.inB[j] || sv.artificial[j] {
				continue
			}
			v := rc[j] - theta*wrow[j]
			if v > 0 {
				v = 0
			}
			rc[j] = v
		}
		rc[sv.basis[r]] = -theta
		sv.iters++
		sv.pivot(r, enter)
	}
}

func (sv *sparseSolver) run() error {
	// Same budgets as the dense reference: Dantzig until the grace
	// budget is spent, then Bland's rule guarantees termination.
	return sv.runBudget(500*(sv.m+sv.n+10), 20*(sv.m+sv.n+10))
}

// checkFeasible rejects optima that still carry a positive artificial:
// with the symbolic Big-M cost that means no feasible point exists.
func (sv *sparseSolver) checkFeasible() error {
	for i, bj := range sv.basis {
		if sv.artificial[bj] && sv.xB[i] > 1e-7 {
			return ErrInfeasible
		}
	}
	return nil
}

func (sv *sparseSolver) solution(p *Problem) *Solution {
	x := make([]float64, p.NumVars)
	for i, bj := range sv.basis {
		if bj < sv.structural {
			v := sv.xB[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[bj] = v
		}
	}
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return &Solution{X: x, Objective: obj, Iterations: sv.iters}
}

// captureBasis folds any pending etas and hands the inverse columns to
// the returned Basis (the solver is done with them), together with the
// RHS/basic-value pair the dual-simplex repair needs next period.
func (sv *sparseSolver) captureBasis() *Basis {
	sv.refactor()
	b := &Basis{
		m:    sv.m,
		n:    sv.n,
		cols: append([]int(nil), sv.basis...),
		binv: sv.binv,
		b:    append([]float64(nil), sv.b...),
		xb:   append([]float64(nil), sv.xB...),
	}
	sv.binv = nil
	return b
}

// tryWarm attempts the full warm-start ladder from a prior basis:
//
//  1. structural verification (else cold),
//  2. still primal feasible → plain primal simplex,
//  3. infeasible under the new RHS → re-optimize against the OLD RHS
//     (primal, absorbs the objective drift, usually 0 pivots), then
//     dual simplex to walk the RHS change back to feasibility, capped
//     at repairCap pivots, then a final primal cleanup.
//
// finished=false means the solver must be restarted cold; any verdict
// returned with finished=true was reached from a feasible start and is
// therefore trustworthy.
func (sv *sparseSolver) tryWarm(warm *Basis, repairCap int) (finished bool, err error) {
	ok, feasible := sv.startWarm(warm)
	if !ok {
		return false, nil
	}
	if feasible {
		if e := sv.run(); e != nil {
			if errors.Is(e, errIterLimit) {
				return false, nil
			}
			return true, e
		}
		return true, nil
	}
	// The repair needs the capture-time RHS and an artificial-free basis
	// (so the Big-M components vanish from the dual ratio test).
	if sv.mActive || len(warm.b) != sv.m || len(warm.xb) != sv.m {
		return false, nil
	}
	newB := sv.b
	sv.b = append([]float64(nil), warm.b...)
	copy(sv.xB, warm.xb)
	e := sv.run() // phase A: new objective, old RHS — warm basis is feasible here
	sv.b = newB
	if e != nil {
		// Unbounded here says nothing about the new-RHS problem's
		// feasibility; let the cold solve produce the verdict.
		return false, nil
	}
	sv.refactor() // fold etas and recompute xB under the NEW RHS
	if e := sv.runDual(repairCap); e != nil {
		return false, nil
	}
	if e := sv.run(); e != nil { // phase C: usually 0 pivots
		if errors.Is(e, errIterLimit) {
			return false, nil
		}
		return true, e
	}
	return true, nil
}

// Solve runs the sparse revised simplex from a cold Big-M start and
// returns an optimal solution.
func Solve(p *Problem) (*Solution, error) {
	sol, _, err := SolveWarm(p, nil)
	return sol, err
}

// SolveWarm solves p seeded from the basis of a previous solve and
// returns the solution together with the optimal basis for the next
// call. A nil, mismatched, or infeasible-under-the-new-RHS basis falls
// back to a cold solve; the answer is optimal either way, so callers can
// thread the returned Basis through a solve sequence unconditionally.
func SolveWarm(p *Problem, warm *Basis) (*Solution, *Basis, error) {
	return solveWarm(p, warm, repairCap)
}

// repairCap caps the warm start's dual-simplex repair of a standard-form
// problem with m rows and n columns at m+n pivots. A repair is a walk
// back to feasibility after an RHS drift and normally takes a few
// hundred pivots on the headline LP; a path that runs on past m+n is
// cheaper to abandon for the cold solve than to follow (one headline
// tick took 45k dual pivots, ~23 s, against a ~10 ms cold solve).
func repairCap(m, n int) int { return m + n }

// solveWarm is SolveWarm with the dual repair capped at capOf(m, n)
// pivots for the standard-form problem's m rows and n columns.
func solveWarm(p *Problem, warm *Basis, capOf func(m, n int) int) (*Solution, *Basis, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	s := standardize(p)
	if warm != nil {
		sv := newSparseSolver(s)
		if finished, err := sv.tryWarm(warm, capOf(s.m, s.n)); finished {
			if err != nil {
				return nil, nil, err
			}
			return sv.solution(p), sv.captureBasis(), nil
		}
		// Fall through to a pristine cold solver: tryWarm left pivot
		// state behind, but s itself is untouched.
	}
	sv := newSparseSolver(s)
	sv.startCold()
	if err := sv.run(); err != nil {
		return nil, nil, err
	}
	return sv.solution(p), sv.captureBasis(), nil
}
