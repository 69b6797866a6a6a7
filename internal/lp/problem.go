// Package lp implements a linear-programming solver: a bounded-variable
// revised simplex method with a two-phase primal algorithm, a dual simplex
// for warm-started re-solves (used heavily by the branch-and-bound MIP
// solver in internal/mip), Bland's rule as an anti-cycling fallback and
// periodic basis refactorization for numerical stability.
//
// Problems are stated over structural columns x with bounds l ≤ x ≤ u and
// ranged rows rlb ≤ a·x ≤ rub; internally every row receives a slack
// ("row activity") variable so the system becomes A·x − s = 0.
package lp

import (
	"context"
	"fmt"
	"math"
	"time"

	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/numtol"
)

// Inf is the canonical infinity used for absent bounds.
var Inf = math.Inf(1)

// Sense describes the optimization direction of a Problem.
type Sense int

const (
	// Minimize the objective (the internal canonical form).
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Problem is a builder for an LP in the form
//
//	opt  c·x + offset
//	s.t. rlb_i ≤ a_i·x ≤ rub_i   for every row i
//	     lb_j ≤ x_j ≤ ub_j       for every column j
type Problem struct {
	Sense     Sense
	Obj       []float64 // length = number of columns
	ObjOffset float64
	ColLB     []float64
	ColUB     []float64
	ColName   []string

	RowLB   []float64
	RowUB   []float64
	RowName []string
	rows    []sparseRow
}

type sparseRow struct {
	idx []int32
	val []float64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{Sense: Minimize} }

// NumCols reports the number of structural columns.
func (p *Problem) NumCols() int { return len(p.Obj) }

// NumRows reports the number of rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddCol appends a column with the given objective coefficient and bounds,
// returning its index. lb may be -Inf and ub may be +Inf.
func (p *Problem) AddCol(obj, lb, ub float64, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: column %q has lb %v > ub %v", name, lb, ub))
	}
	p.Obj = append(p.Obj, obj)
	p.ColLB = append(p.ColLB, lb)
	p.ColUB = append(p.ColUB, ub)
	p.ColName = append(p.ColName, name)
	return len(p.Obj) - 1
}

// AddRow appends a ranged row rlb ≤ Σ val_k·x_{idx_k} ≤ rub and returns its
// index. Duplicate column indices within one row are merged.
func (p *Problem) AddRow(idx []int32, val []float64, rlb, rub float64, name string) int {
	if len(idx) != len(val) {
		panic("lp: AddRow index/value length mismatch")
	}
	if rlb > rub {
		panic(fmt.Sprintf("lp: row %q has rlb %v > rub %v", name, rlb, rub))
	}
	merged := map[int32]float64{}
	order := make([]int32, 0, len(idx))
	for k, j := range idx {
		if int(j) < 0 || int(j) >= p.NumCols() {
			panic(fmt.Sprintf("lp: row %q references column %d out of range [0,%d)", name, j, p.NumCols()))
		}
		if _, seen := merged[j]; !seen {
			order = append(order, j)
		}
		merged[j] += val[k]
	}
	r := sparseRow{}
	for _, j := range order {
		if v := merged[j]; v != 0 {
			r.idx = append(r.idx, j)
			r.val = append(r.val, v)
		}
	}
	p.rows = append(p.rows, r)
	p.RowLB = append(p.RowLB, rlb)
	p.RowUB = append(p.RowUB, rub)
	p.RowName = append(p.RowName, name)
	return len(p.rows) - 1
}

// AddLE appends the row a·x ≤ rhs.
func (p *Problem) AddLE(idx []int32, val []float64, rhs float64, name string) int {
	return p.AddRow(idx, val, math.Inf(-1), rhs, name)
}

// AddGE appends the row a·x ≥ rhs.
func (p *Problem) AddGE(idx []int32, val []float64, rhs float64, name string) int {
	return p.AddRow(idx, val, rhs, Inf, name)
}

// AddEQ appends the row a·x = rhs.
func (p *Problem) AddEQ(idx []int32, val []float64, rhs float64, name string) int {
	return p.AddRow(idx, val, rhs, rhs, name)
}

// Row returns the coefficient slices of row i (shared storage; do not
// mutate).
func (p *Problem) Row(i int) ([]int32, []float64) { return p.rows[i].idx, p.rows[i].val }

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded over the feasible set.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit before convergence.
	StatusIterLimit
	// StatusNumeric means the solve was abandoned after an irrecoverable
	// numerical failure (e.g. a basis factorization that failed and could
	// not be repaired by a cold refactorization).
	StatusNumeric
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusNumeric:
		return "numeric-failure"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Basis is a snapshot of a simplex basis usable for warm starts.
type Basis struct {
	Basic  []int32 // column index basic in each row position
	Status []int8  // per-column nonbasic status (see vstatus constants)
}

// Clone deep-copies the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	out := &Basis{Basic: make([]int32, len(b.Basic)), Status: make([]int8, len(b.Status))}
	copy(out.Basic, b.Basic)
	copy(out.Status, b.Status)
	return out
}

// Result holds the outcome of an LP solve.
type Result struct {
	Status     Status
	Obj        float64   // objective in the problem's original sense
	X          []float64 // structural column values (valid when Optimal)
	Duals      []float64 // row duals, in the problem's original sense
	Iterations int
	Basis      *Basis // final basis snapshot (valid when Optimal or Infeasible-by-dual)
	// BoundFlips counts nonbasic variables flipped between their bounds by
	// the long-step dual ratio test; each flip absorbs a would-be
	// (typically degenerate) pivot. RatioPasses counts the breakpoints the
	// long-step test walked through (flips plus entering choices).
	BoundFlips  int
	RatioPasses int
	// SparseSolves counts the FTRAN/BTRAN calls that stayed hyper-sparse
	// (visiting only the elimination steps their right-hand side reaches);
	// DenseSolves counts the calls that ran dense — dense right-hand sides
	// (basic values, duals) and solves whose reach passed the dense switch.
	SparseSolves int
	DenseSolves  int
	// Factors is the LU factorization matching Basis, filled only when
	// Options.CaptureFactors is set (and Basis is). Handing it back as
	// Options.WarmFactors of a later solve warm-starts that solve without a
	// refactorization, and works across Instance clones, which is what
	// makes parallel branch-and-bound bit-reproducible.
	Factors *sparselu.Factors
	// WarmUsed reports that this result came from a successful warm-started
	// dual-simplex run (rather than the cold two-phase fallback). Unlike the
	// process-global Debug* counters it is attributable to one solve, which
	// is what lets concurrent callers (the admission engine, parallel
	// sweeps) account their own warm-start hit rates race-free.
	WarmUsed bool
	// BasisExtended reports that the warm start adopted a basis predating
	// rows appended with AppendRow AND extended its LU factors with a
	// bordered block (sparselu.Extend) instead of refactorizing — the
	// cutting-plane/admission hot-restart fast path.
	BasisExtended bool
	// ColumnsRemapped reports that the warm start adopted a basis predating
	// columns appended with AppendColumn, remapped onto the widened column
	// space — the column-generation hot-restart path. The appended columns
	// enter nonbasic, so the old factorization is reused unchanged.
	ColumnsRemapped bool
}

// Options tunes a solve.
type Options struct {
	MaxIters  int    // 0 → automatic (20000 + 50·(rows+cols))
	WarmBasis *Basis // if non-nil, attempt a dual-simplex warm start
	// WarmFactors, when non-nil, is the LU factorization of WarmBasis
	// (typically a prior Result.Factors). The warm start copies it into
	// solver-owned storage instead of refactorizing, making the solve a
	// pure function of its inputs. The caller must guarantee the factors
	// actually belong to WarmBasis.
	WarmFactors *sparselu.Factors
	// CaptureFactors asks the solve to return a deep copy of its final
	// basis factorization in Result.Factors (whenever Result.Basis is
	// filled).
	CaptureFactors bool
	FeasTol        float64
	OptTol         float64
	// Deadline aborts the solve (StatusIterLimit) once passed. Zero means
	// no deadline. Checked every few dozen iterations.
	Deadline time.Time
	// Context, when non-nil, aborts the solve (StatusIterLimit) as soon as
	// it is cancelled. Like Deadline it is checked at iteration
	// checkpoints, so cancellation takes effect within a few dozen simplex
	// iterations.
	Context context.Context
}

func (o *Options) withDefaults(rows, cols int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxIters <= 0 {
		out.MaxIters = 20000 + 50*(rows+cols)
	}
	if out.FeasTol <= 0 {
		out.FeasTol = numtol.LPFeasTol
	}
	if out.OptTol <= 0 {
		out.OptTol = numtol.LPOptTol
	}
	return out
}

// Solve solves the problem from scratch (or from opts.WarmBasis when given).
// Cold solves first run the presolve reductions (see presolve.go) and map
// the reduced solution back; warm-started solves skip presolve because the
// supplied basis is stated over the unreduced problem.
func Solve(p *Problem, opts *Options) Result {
	if opts == nil || opts.WarmBasis == nil {
		if ps := presolve(p); ps != nil {
			return ps.solve(opts)
		}
	}
	inst := NewInstance(p)
	return inst.Solve(opts)
}
