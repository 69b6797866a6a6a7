package lp

import (
	"fmt"
	"math"
	"time"

	"tvnep/internal/linalg/sparselu"
)

// Nonbasic/basic variable statuses. Exported values appear in Basis
// snapshots; keep them stable.
const (
	vsLower int8 = iota // nonbasic at lower bound
	vsUpper             // nonbasic at upper bound
	vsFree              // nonbasic free variable, held at value 0
	vsBasic             // basic
)

const (
	pivTol     = 1e-9  // minimum pivot magnitude
	dropTol    = 1e-12 // entries below this are treated as zero in updates
	stallLimit = 400   // degenerate iterations before switching to Bland's rule

	// crashBoundTol is the slack allowed when testing whether a row
	// activity already lies inside its slack's bounds during the crash
	// basis construction; activities are single dot products, so only a
	// few ulps of error are possible.
	crashBoundTol = 1e-12
	// ratioTieTol is the window within which two ratio-test limits are
	// treated as tied (the larger-pivot rule then breaks the tie).
	ratioTieTol = 1e-10
	// blandTieTol is the much tighter tie window used under Bland's rule,
	// where ties must be broken by index to preserve the anti-cycling
	// guarantee.
	blandTieTol = 1e-12
	// degenStepTol is the step length below which an iteration counts as
	// degenerate for the stall detector.
	degenStepTol = 1e-12
	// flipSlopeTol is the dual-infeasibility slope below which the
	// long-step (bound-flipping) ratio test stops passing breakpoints: a
	// flip is only taken while the remaining primal violation of the
	// leaving row stays safely positive afterwards.
	flipSlopeTol = 1e-9
	// dseFloor keeps the dual steepest-edge weights away from zero; a
	// too-small weight would make one row's score explode on roundoff.
	dseFloor = 1e-4
)

// refactorEvery returns the number of eta-file updates tolerated before a
// scheduled refactorization. A sparse refactorization costs O(nnz·fill)
// while every eta lengthens all subsequent FTRAN/BTRAN solves, so the
// trade-off favors fairly frequent refactorization; larger bases still
// amortize it over proportionally more pivots.
func refactorEvery(m int) int {
	if n := m / 2; n > 120 {
		return n
	}
	return 120
}

// etaNNZBudget bounds the total eta-file size before a refactorization is
// forced regardless of the update count: dense pivot columns (up to m
// entries each) would otherwise make the product-form solves quadratic.
func etaNNZBudget(m int) int {
	if n := 8 * m; n > 512 {
		return n
	}
	return 512
}

// Instance is a solvable snapshot of a Problem with mutable column bounds.
// It caches the sparse column-wise matrix in equilibrated (scaled) form; the
// branch-and-bound solver mutates bounds between solves instead of
// rebuilding the problem. Bounds, objective, solutions and duals stay in the
// original units — the scaling is applied and removed inside the solver (see
// scaling.go). Instances are not safe for concurrent use.
type Instance struct {
	p *Problem
	n int // structural columns
	m int // rows

	colIdx [][]int32 // structural columns only; values are scaled
	colVal [][]float64

	// Rows added by AppendRow (cuts), row-wise: row baseRows+i is
	// extraIdx[i]/extraVal[i], stored scaled. The column-major matrix above
	// already contains their entries; this row view serves warm-basis
	// extension and the row-wise consumers (pivotRow, debug checks).
	baseRows int
	extraIdx [][]int32
	extraVal [][]float64

	// Columns added by AppendColumn (priced path columns), overlaid row-wise:
	// apRowIdx[i]/apRowVal[i] list the appended columns touching row i that
	// the row's own storage predates (values scaled). The column-major matrix
	// above already contains their entries; this overlay completes the row
	// view for the row-wise consumers. nil when no columns were appended.
	baseCols int
	apRowIdx [][]int32
	apRowVal [][]float64

	// Scaled row view of the compiled rows (indices shared with the
	// Problem); nil when the instance is unscaled.
	baseRowVal [][]float64

	unitIdx []int32 // unitIdx[i] = i; slack/artificial column index storage

	lb, ub []float64 // length n+m, original units: structural then row bounds
	objMin []float64 // minimization costs for structural columns (original)
	negate bool      // true if original sense was Maximize

	// Power-of-two equilibration scales (see scaling.go): the solver works
	// on A' = R·A·C with R = diag(rowScale), C = diag(colScale). All scales
	// are powers of two, so applying and removing them is exact and the
	// scaled solve stays bit-deterministic. nil/scaled=false means identity.
	scaled      bool
	rowScale    []float64
	colScale    []float64
	colScaleInv []float64

	// sv is the per-instance solver state, reused across solves so the hot
	// restart path (branch-and-bound, admission, cutting planes) allocates
	// nothing in steady state. Lazily (re)built when dimensions change.
	sv *solver
}

// NewInstance compiles p into column-major form and equilibrates it.
func NewInstance(p *Problem) *Instance {
	n, m := p.NumCols(), p.NumRows()
	inst := &Instance{
		p: p, n: n, m: m,
		baseRows: m,
		baseCols: n,
		colIdx:   make([][]int32, n),
		colVal:   make([][]float64, n),
		lb:       make([]float64, n+m),
		ub:       make([]float64, n+m),
		objMin:   make([]float64, n),
		negate:   p.Sense == Maximize,
	}
	copy(inst.lb, p.ColLB)
	copy(inst.ub, p.ColUB)
	inst.unitIdx = make([]int32, m)
	for i := 0; i < m; i++ {
		inst.lb[n+i] = p.RowLB[i]
		inst.ub[n+i] = p.RowUB[i]
		inst.unitIdx[i] = int32(i)
	}
	for j := 0; j < n; j++ {
		inst.objMin[j] = p.Obj[j]
		if inst.negate {
			inst.objMin[j] = -p.Obj[j]
		}
	}
	// Transpose rows into columns.
	counts := make([]int, n)
	for i := 0; i < m; i++ {
		idx, _ := p.Row(i)
		for _, j := range idx {
			counts[j]++
		}
	}
	nnz := 0
	for _, c := range counts {
		nnz += c
	}
	idxBack := make([]int32, nnz) // shared backing: two allocations, not 2n
	valBack := make([]float64, nnz)
	off := 0
	for j := 0; j < n; j++ {
		inst.colIdx[j] = idxBack[off : off : off+counts[j]]
		inst.colVal[j] = valBack[off : off : off+counts[j]]
		off += counts[j]
	}
	for i := 0; i < m; i++ {
		idx, val := p.Row(i)
		for k, j := range idx {
			inst.colIdx[j] = append(inst.colIdx[j], int32(i))
			inst.colVal[j] = append(inst.colVal[j], val[k])
		}
	}
	inst.equilibrate()
	return inst
}

// Clone returns an independent Instance over the same compiled problem.
// The immutable per-column and per-row storage (and the Problem it was
// compiled from) is shared; the mutable column bounds are copied and the
// solver state starts empty. Clones are what give every worker of a
// parallel branch-and-bound search its own simplex state without recompiling
// the problem: the shared inner slices are never written after compilation,
// and AppendRow replaces — never grows in place — the outer slices it
// touches, so rows appended to one clone stay invisible to the others.
func (inst *Instance) Clone() *Instance {
	out := &Instance{
		p: inst.p, n: inst.n, m: inst.m,
		baseRows:    inst.baseRows,
		baseCols:    inst.baseCols,
		colIdx:      append([][]int32(nil), inst.colIdx...),
		colVal:      append([][]float64(nil), inst.colVal...),
		extraIdx:    append([][]int32(nil), inst.extraIdx...),
		extraVal:    append([][]float64(nil), inst.extraVal...),
		apRowIdx:    append([][]int32(nil), inst.apRowIdx...),
		apRowVal:    append([][]float64(nil), inst.apRowVal...),
		baseRowVal:  inst.baseRowVal,
		unitIdx:     inst.unitIdx,
		lb:          append([]float64(nil), inst.lb...),
		ub:          append([]float64(nil), inst.ub...),
		objMin:      inst.objMin,
		negate:      inst.negate,
		scaled:      inst.scaled,
		rowScale:    inst.rowScale,
		colScale:    inst.colScale,
		colScaleInv: inst.colScaleInv,
	}
	return out
}

// NumCols reports the number of structural columns.
func (inst *Instance) NumCols() int { return inst.n }

// NumRows reports the number of rows.
func (inst *Instance) NumRows() int { return inst.m }

// SetColBounds overrides the bounds of structural column j.
func (inst *Instance) SetColBounds(j int, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("lp: SetColBounds(%d) lb %v > ub %v", j, lb, ub))
	}
	inst.lb[j], inst.ub[j] = lb, ub
}

// ColBounds returns the current bounds of structural column j.
func (inst *Instance) ColBounds(j int) (lb, ub float64) { return inst.lb[j], inst.ub[j] }

// solver holds the simplex state for solves on one instance. It is owned by
// the instance and reused across solves: all slices below are allocated once
// per (n, m) shape, so warm restarts and steady-state iterations allocate
// nothing.
type solver struct {
	inst *Instance
	m    int // rows
	nm   int // structural + slack columns
	N    int // total columns including m permanent artificials

	lb, ub  []float64 // length N, scaled units
	cost    []float64 // active phase costs, length N
	real    []float64 // phase-2 costs, length N
	vstat   []int8    // length N
	basis   []int32   // length m
	inBasis []int32   // length N, row position or -1

	fac *sparselu.Factors // sparse LU of the basis + eta updates
	xB  []float64         // basic variable values

	// Factorization buffers: the active factorization always lives in one
	// of these two solver-owned buffers (never handed out — Result.Factors
	// is a deep copy), so refactorizations and warm-factor adoptions reuse
	// their storage. Two buffers because a mid-solve refactorization must
	// not destroy the current factors before it succeeds.
	facBuf [2]*sparselu.Factors
	facCur int
	facWS  *sparselu.Workspace
	refIdx [][]int32 // refactorization column headers, length m
	refVal [][]float64
	// preFac, when set by extendWarmStart, is a solver-owned buffer already
	// holding the bordered extension of the caller's WarmFactors; adoptBasis
	// installs it directly instead of copying WarmFactors.
	preFac *sparselu.Factors
	// extendWarmStart scratch: border rows in basis positions, their
	// diagonal, and the basic-column → position lookup (-1-initialized).
	extIdx  [][]int32
	extVal  [][]float64
	extDiag []float64
	posOf   []int32

	// workspaces
	alpha []float64
	y     []float64
	rho   []float64
	work  []float64
	tau   []float64 // B⁻¹ρ for the dual steepest-edge update

	// Patterns of alpha, rho, tau and work from their last hyper-sparse
	// solve (ascending; every entry off the pattern is +0), so the loops
	// over these vectors and their clearing walk the pattern instead of all
	// m rows. Off the pattern the dense loops would only subtract c·(+0),
	// which changes no value but a −0 (and x_B holds a −0 only when a bound
	// is −0). Each has capacity m. flipRows is the right-hand-side pattern
	// of applyBoundFlips (rows may repeat).
	alphaNZ  []int32
	rhoNZ    []int32
	tauNZ    []int32
	workNZ   []int32
	flipRows []int32

	// Incrementally maintained reduced costs (see reduced.go).
	d       []float64
	arow    []float64
	arowNZ  []int32 // hyper-sparse index stack: columns touched by pivotRow
	arowTag []bool  // membership marks for arowNZ

	basisSeen []bool // adoptBasis duplicate-column check scratch, length N
	dValid    bool
	dFresh    bool // d recomputed from scratch since the last pivot
	xbFresh   bool // xB recomputed from scratch since the last pivot

	// Long-step (bound-flipping) dual ratio test scratch: a binary min-heap
	// of breakpoints keyed (ratio, column), the ratio-sorted drain of that
	// heap, and the flip list of the current iteration (see dual.go).
	bfRatio []float64
	bfJ     []int32
	bpRatio []float64
	bpJ     []int32
	flips   []int32

	// Pricing weights (see devex.go): devexW are primal Devex weights for
	// entering columns; dualW are dual steepest-edge weights β_i ≈ ‖B⁻ᵀe_i‖²
	// for leaving rows. priceCursor is the rotating start of the primal's
	// sectional candidate scan.
	devexW      []float64
	dualW       []float64
	priceCursor int

	opts       Options
	iters      int
	boundFlips int // nonbasic bound flips taken by the long-step ratio test
	ratioPass  int // breakpoints passed (flipped through) in ratio tests
	// FTRAN/BTRAN calls that stayed hyper-sparse, and calls that ran (or
	// finished) dense.
	sparseSolves int
	denseSolves  int
	bland        bool
	stall        int
	sincefac     int
	lastPivotQ   int
}

// fixedCol reports whether column j is fixed (equal bounds) and can never
// leave its bound. Bounds are only ever equal by assignment (construction,
// branching, presolve), so the bit-exact comparison is deliberate.
func (s *solver) fixedCol(j int) bool {
	//lint:allow floateq -- equal bounds are assigned, never computed
	return s.lb[j] == s.ub[j]
}

// newSolver returns the instance's solver, reset for a fresh solve. The
// state is allocated on first use (or when AppendRow changed the dimensions)
// and reused otherwise.
func newSolver(inst *Instance, opts Options) *solver {
	n, m := inst.n, inst.m
	s := inst.sv
	if s == nil || s.m != m || s.N != n+2*m {
		s = &solver{
			inst: inst, m: m, nm: n + m, N: n + 2*m,
			lb: make([]float64, n+2*m), ub: make([]float64, n+2*m),
			cost: make([]float64, n+2*m), real: make([]float64, n+2*m),
			vstat: make([]int8, n+2*m), basis: make([]int32, m),
			inBasis: make([]int32, n+2*m),
			xB:      make([]float64, m),
			alpha:   make([]float64, m), y: make([]float64, m),
			rho: make([]float64, m), work: make([]float64, m),
			tau: make([]float64, m),
			d:   make([]float64, n+2*m), arow: make([]float64, n+2*m),
			arowNZ: make([]int32, 0, n+2*m), arowTag: make([]bool, n+2*m),
			basisSeen: make([]bool, n+2*m),
			devexW:    make([]float64, n+2*m), dualW: make([]float64, m),
			facWS:  sparselu.NewWorkspace(),
			refIdx: make([][]int32, m), refVal: make([][]float64, m),
			posOf: make([]int32, n+2*m),
		}
		for j := range s.posOf {
			s.posOf[j] = -1
		}
		nz := make([]int32, 4*m) // one backing array for the four patterns
		s.alphaNZ, s.rhoNZ = nz[0:0:m], nz[m:m:2*m]
		s.tauNZ, s.workNZ = nz[2*m:2*m:3*m], nz[3*m:3*m:4*m]
		inst.sv = s
	}
	s.reset(opts)
	return s
}

// reset prepares the solver for a new solve under the instance's current
// bounds: scaled bounds and costs are (re)installed, all incremental state
// is invalidated, and the pricing weights return to their reference values.
func (s *solver) reset(opts Options) {
	inst := s.inst
	s.opts = opts
	s.iters = 0
	s.bland = false
	s.stall = 0
	s.sincefac = 0
	s.lastPivotQ = -1
	s.priceCursor = 0
	s.boundFlips = 0
	s.ratioPass = 0
	s.sparseSolves, s.denseSolves = 0, 0
	for i := 0; i < s.m; i++ {
		s.alpha[i], s.rho[i], s.tau[i], s.work[i] = 0, 0, 0, 0
	}
	s.alphaNZ, s.rhoNZ = s.alphaNZ[:0], s.rhoNZ[:0]
	s.tauNZ, s.workNZ = s.tauNZ[:0], s.workNZ[:0]
	s.dValid, s.dFresh, s.xbFresh = false, false, false
	s.fac = nil
	s.preFac = nil
	for j := range s.devexW {
		s.devexW[j] = 1
	}
	for i := range s.dualW {
		s.dualW[i] = 1
	}
	for j := range s.inBasis {
		s.inBasis[j] = -1
	}
	for j := range s.arow {
		s.arow[j] = 0
		s.arowTag[j] = false
	}
	s.arowNZ = s.arowNZ[:0]
	if inst.scaled {
		// x'_j = x_j/c_j and slack s'_i = r_i·s_i; the scales are powers of
		// two, so these transforms are exact (and map ±Inf to ±Inf).
		for j := 0; j < inst.n; j++ {
			ci := inst.colScaleInv[j]
			s.lb[j] = inst.lb[j] * ci
			s.ub[j] = inst.ub[j] * ci
			s.real[j] = inst.objMin[j] * inst.colScale[j]
		}
		for i := 0; i < s.m; i++ {
			r := inst.rowScale[i]
			s.lb[inst.n+i] = inst.lb[inst.n+i] * r
			s.ub[inst.n+i] = inst.ub[inst.n+i] * r
		}
	} else {
		copy(s.lb, inst.lb)
		copy(s.ub, inst.ub)
		copy(s.real[:inst.n], inst.objMin)
	}
	for j := inst.n; j < s.N; j++ {
		s.real[j] = 0
		s.cost[j] = 0
	}
	// Artificials default to fixed at zero; phase-1 setup relaxes the ones
	// it needs.
	for j := s.nm; j < s.N; j++ {
		s.lb[j], s.ub[j] = 0, 0
	}
}

// grabFacBuf returns the inactive solver-owned factorization buffer,
// allocating it on first use. The caller installs the result as s.fac after
// filling it; the previously active buffer then becomes the spare.
func (s *solver) grabFacBuf() *sparselu.Factors {
	next := 1 - s.facCur
	if s.facBuf[next] == nil {
		s.facBuf[next] = &sparselu.Factors{}
	}
	s.facCur = next
	return s.facBuf[next]
}

// Shared single-entry value slices for the slack (−1) and artificial (+1)
// unit columns. Read-only; never mutate.
var (
	negUnitVal = []float64{-1}
	posUnitVal = []float64{1}
)

// col returns the sparse column j of the full matrix [A | −I | +I]. The
// returned slices are shared storage; callers must not mutate or retain
// them across basis changes.
func (s *solver) col(j int) ([]int32, []float64) {
	switch {
	case j < s.inst.n:
		return s.inst.colIdx[j], s.inst.colVal[j]
	case j < s.nm:
		r := j - s.inst.n
		return s.inst.unitIdx[r : r+1], negUnitVal
	default:
		r := j - s.nm
		return s.inst.unitIdx[r : r+1], posUnitVal
	}
}

// colValue returns the current value of column j.
func (s *solver) colValue(j int) float64 {
	switch s.vstat[j] {
	case vsLower:
		return s.lb[j]
	case vsUpper:
		return s.ub[j]
	case vsFree:
		return 0
	default:
		return s.xB[s.inBasis[j]]
	}
}

// defaultStatus returns the natural nonbasic status for column j.
func (s *solver) defaultStatus(j int) int8 {
	lb, ub := s.lb[j], s.ub[j]
	switch {
	case !math.IsInf(lb, -1):
		return vsLower
	case !math.IsInf(ub, 1):
		return vsUpper
	default:
		return vsFree
	}
}

// countSolve records whether an FTRAN/BTRAN stayed hyper-sparse.
func (s *solver) countSolve(sparse bool) {
	if sparse {
		s.sparseSolves++
	} else {
		s.denseSolves++
	}
}

// ftranNZ solves B·x = v in place over the rows nz that may hold a value
// other than +0 and returns x's pattern in buf's storage (capacity m).
func (s *solver) ftranNZ(v []float64, nz, buf []int32) []int32 {
	pat, sparse := s.fac.FtranNZ(v, nz, buf[:s.m], s.facWS)
	s.countSolve(sparse)
	return pat
}

// ftran computes s.alpha ← B⁻¹·A_j and its pattern s.alphaNZ by a
// hyper-sparse forward solve: the previous alpha is cleared through its
// pattern, the entering column scattered in, and the solve visits only the
// elimination steps the column reaches.
func (s *solver) ftran(j int) {
	for _, i := range s.alphaNZ {
		s.alpha[i] = 0
	}
	idx, val := s.col(j)
	for k, r := range idx {
		s.alpha[r] += val[k]
	}
	s.alphaNZ = s.ftranNZ(s.alpha, idx, s.alphaNZ)
}

// computeDuals fills s.y with the solution of Bᵀ·y = c_B for the active
// phase costs (a dense right-hand side, so a dense solve).
func (s *solver) computeDuals() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.cost[s.basis[i]]
	}
	s.fac.Btran(s.y)
	s.countSolve(false)
}

// reducedCost returns d_j = c_j − yᵀ·A_j using the currently computed duals.
func (s *solver) reducedCost(j int) float64 {
	d := s.cost[j]
	idx, val := s.col(j)
	for k, r := range idx {
		d -= s.y[r] * val[k]
	}
	return d
}

// btranRow fills s.rho with row r of B⁻¹, i.e. the solution of Bᵀ·ρ = e_r
// (a maximally sparse right-hand side for the backward solve), and s.rhoNZ
// with its pattern.
func (s *solver) btranRow(r int) {
	for _, i := range s.rhoNZ {
		s.rho[i] = 0
	}
	s.rho[r] = 1
	s.rhoNZ = s.rhoNZ[:1]
	s.rhoNZ[0] = int32(r)
	pat, sparse := s.fac.BtranNZ(s.rho, s.rhoNZ, s.rhoNZ[:s.m], s.facWS)
	s.countSolve(sparse)
	s.rhoNZ = pat
}

// computeXB recomputes the basic values from scratch:
// x_B = −B⁻¹·(Σ nonbasic A_j·value_j).
func (s *solver) computeXB() {
	for i := range s.xB {
		s.xB[i] = 0
	}
	for j := 0; j < s.N; j++ {
		if s.vstat[j] == vsBasic {
			continue
		}
		v := s.colValue(j)
		if v == 0 {
			continue
		}
		idx, val := s.col(j)
		for k, r := range idx {
			s.xB[r] -= val[k] * v
		}
	}
	s.fac.Ftran(s.xB)
	s.countSolve(false)
}

// refactor rebuilds the sparse LU factorization of the basis from scratch,
// discarding the eta file. Returns sparselu.ErrSingular if the basis matrix
// is singular; the previous factorization (if any) stays intact and active
// in that case.
func (s *solver) refactor() error {
	m := s.m
	for pos := 0; pos < m; pos++ {
		s.refIdx[pos], s.refVal[pos] = s.col(int(s.basis[pos]))
	}
	// Factorize into the spare buffer so a failure leaves s.fac usable.
	next := 1 - s.facCur
	if s.facBuf[next] == nil {
		s.facBuf[next] = &sparselu.Factors{}
	}
	if err := sparselu.FactorizeInto(s.facBuf[next], s.facWS, m, s.refIdx, s.refVal); err != nil {
		return err
	}
	s.facCur = next
	s.fac = s.facBuf[next]
	s.sincefac = 0
	return nil
}

// pivot makes column q basic in row r, with s.alpha the FTRAN'd entering
// column. enterVal is the new value of x_q and leaveStat the nonbasic
// status assigned to the leaving variable.
//
//hot:path
func (s *solver) pivot(q int, r int, enterVal float64, leaveStat int8) {
	leaving := int(s.basis[r])
	s.vstat[leaving] = leaveStat
	s.inBasis[leaving] = -1
	s.basis[r] = int32(q)
	s.inBasis[q] = int32(r)
	s.vstat[q] = vsBasic
	s.fac.Update(s.alpha, s.alphaNZ, r)
	s.sincefac++
	s.xB[r] = enterVal
	s.lastPivotQ = q
	s.xbFresh = false
	if s.sincefac >= refactorEvery(s.m) || s.fac.EtaNNZ() >= etaNNZBudget(s.m) {
		if err := s.refactor(); err == nil { //lint:allow hotalloc -- periodic refactorization is the amortized cold path
			s.computeXB()
			s.dValid = false // refresh reduced costs against numerical drift
		}
	}
}

// snapshot extracts a warm-startable basis (all N columns, including
// artificials, so a later solver of the same instance can adopt it).
func (s *solver) snapshot() *Basis {
	b := &Basis{Basic: make([]int32, s.m), Status: make([]int8, s.N)}
	copy(b.Basic, s.basis)
	copy(b.Status, s.vstat)
	return b
}

// adoptBasis installs a snapshot, refactorizes (or adopts the handed-off
// factors) and recomputes basic values.
func (s *solver) adoptBasis(b *Basis) bool {
	if b == nil || len(b.Basic) != s.m || len(b.Status) != s.N {
		return false
	}
	okBasis := true
	for _, j := range b.Basic {
		if int(j) < 0 || int(j) >= s.N || s.basisSeen[j] {
			okBasis = false
			break
		}
		s.basisSeen[j] = true
	}
	for _, j := range b.Basic {
		if int(j) >= 0 && int(j) < s.N {
			s.basisSeen[j] = false
		}
	}
	if !okBasis {
		return false
	}
	copy(s.basis, b.Basic)
	copy(s.vstat, b.Status)
	for j := range s.inBasis {
		s.inBasis[j] = -1
	}
	for pos, j := range s.basis {
		s.inBasis[j] = int32(pos)
		s.vstat[j] = vsBasic
	}
	adopted := false
	if s.preFac != nil {
		// extendWarmStart already built the bordered extension in a
		// solver-owned buffer; install it directly.
		s.fac = s.preFac
		s.preFac = nil
		adopted = true
	} else if wf := s.opts.WarmFactors; wf != nil && wf.M() == s.m {
		// Explicit factor handoff (Result.Factors of the solve that produced
		// b). Deep-copied into a solver-owned buffer so this solver's eta
		// updates stay out of the caller's copy, which siblings share; the
		// copy reuses the buffer's storage, so steady-state handoffs do not
		// allocate.
		wf.CopyInto(s.grabFacBuf())
		s.fac = s.facBuf[s.facCur]
		adopted = true
		DebugFactorHandoffs.Add(1)
	}
	// Repair nonbasic statuses that reference bounds which no longer exist
	// (possible after branching tightened/removed a bound).
	for j := 0; j < s.N; j++ {
		if s.vstat[j] == vsBasic {
			continue
		}
		switch s.vstat[j] {
		case vsLower:
			if math.IsInf(s.lb[j], -1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		case vsUpper:
			if math.IsInf(s.ub[j], 1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		case vsFree:
			if !math.IsInf(s.lb[j], -1) || !math.IsInf(s.ub[j], 1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		}
	}
	if !adopted {
		if err := s.refactor(); err != nil {
			return false
		}
	}
	s.computeXB()
	return true
}

// objValue returns the current phase-2 objective (minimization form, no
// offset). Scaled costs times scaled values give original-unit terms.
func (s *solver) objValue() float64 {
	obj := 0.0
	for j := 0; j < s.inst.n; j++ {
		obj += s.real[j] * s.colValue(j)
	}
	return obj
}

// interrupted reports whether the solve should stop: its deadline has
// passed or its context has been cancelled.
func (s *solver) interrupted() bool {
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) { //lint:allow nondet -- deadline enforcement is deliberate wall-clock dependence
		return true
	}
	if ctx := s.opts.Context; ctx != nil && ctx.Err() != nil {
		return true
	}
	return false
}

// primalInfeasibility returns the largest bound violation among basic
// variables.
func (s *solver) primalInfeasibility() float64 {
	worst := 0.0
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if v := s.lb[j] - s.xB[i]; v > worst {
			worst = v
		}
		if v := s.xB[i] - s.ub[j]; v > worst {
			worst = v
		}
	}
	return worst
}
