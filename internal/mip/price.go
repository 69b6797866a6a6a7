package mip

// Column generation, the column-side mirror of the lazy-cut pipeline in
// cuts.go. Instead of emitting every variable into the root LP up front,
// callers register Pricer callbacks that examine the relaxation's dual values
// and return columns with improving reduced cost. The searcher keeps the
// returned columns in the same deterministic pool as the cuts (pool.go,
// deduplicated by an exact canonical-column key), appends the best-priced
// batch to the LP, and hot-restarts the same node from its own final basis —
// the appended columns ride the basis remap + primal restart in internal/lp,
// so a pricing round costs a handful of primal pivots, not a refactorization.
//
// Pricing runs only on the serial committer, and — unlike cut separation,
// which is an optional strengthening — it runs to convergence at every node:
// a restricted master's objective is only a valid branch-and-bound node bound
// once no column prices in, so the per-node round cap exists purely as a
// safety net against a non-converging Pricer. Workers learn about committed
// columns (and cut rows) through the atomically published append-only op log
// (see engine.go) and replay them onto their own instances in committed
// order before solving, so the committed search stays bit-identical for any
// worker count.

import (
	"fmt"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// Column is one priced structural column: coefficients Val over the rows Idx
// of the LP relaxation, bounds [LB, UB] and objective coefficient Obj, all in
// the problem's original sense. Name is a diagnostic label carried through to
// certification; Tag carries pricer-private payload (e.g. the substrate path
// a path-flow column encodes) through to the solution and its certificates.
type Column struct {
	Idx []int32
	Val []float64
	LB  float64
	UB  float64
	Obj float64

	Name string
	Tag  interface{}
}

// Pricer generates columns with improving reduced cost at a relaxation
// optimum. The contract has two parts, both load-bearing:
//
//   - Validity: every returned column must be a genuine variable of the full
//     (unrestricted) formulation — adding it may only ever enlarge the
//     feasible region toward the true relaxation, never change the problem.
//     The search prunes on node bounds taken from priced-out relaxations,
//     which is only sound when the full formulation is exactly the closure
//     of the restricted master under Price.
//   - Determinism: Price must be a pure function of (duals, x) (same point,
//     same columns, same order). The committer calls it exactly once per
//     pricing round on deterministic points; any internal randomness or
//     iteration over unordered maps would break the bit-identical-across-
//     workers guarantee.
//
// duals is lp.Result.Duals at the node optimum (length = current LP rows,
// original sense); x is the relaxation point (length = current LP columns).
// Price may return columns that do not price in (they are pooled for later
// rounds) and may return duplicates (the pool deduplicates), but it must not
// mutate its arguments. A pricer that can prove no improving column exists
// must eventually return none, or the round cap stops the node's pricing
// with an invalid bound.
type Pricer interface {
	Price(duals []float64, x []float64) []Column
}

// ColumnStats summarizes the pricing work of one solve.
type ColumnStats struct {
	// ColsAtRoot is the number of structural LP columns the root relaxation
	// started with (the statically emitted variables).
	ColsAtRoot int
	// PricedCols is the number of columns appended by pricing over the whole
	// search.
	PricedCols int
	// Rounds is the number of pricing rounds that appended at least one
	// column.
	Rounds int
	// Offered is the total number of columns returned by pricers (before
	// deduplication).
	Offered int
	// PoolHits counts offered columns that were already pooled — the dedup
	// rate is PoolHits/Offered.
	PoolHits int
	// Evicted counts pooled-but-never-appended columns dropped by age-based
	// eviction.
	Evicted int
}

// offerColumn canonicalizes the column and pools it unless an identical one
// is already present. m is the current LP row count; malformed columns and
// columns over out-of-range rows panic here, with the pricer's column name,
// rather than deep inside lp.AppendColumn. A column that canonicalizes to
// nothing is dropped: it can never price in (its reduced cost is its
// objective, which a correct pricer only offers when coupling rows exist).
func offerColumn(p *pool[Column], c Column, m int) {
	p.offered++
	if len(c.Idx) != len(c.Val) {
		panic(fmt.Sprintf("mip: pricer column %q index/value length mismatch", c.Name))
	}
	if c.LB > c.UB {
		panic(fmt.Sprintf("mip: pricer column %q bounds %v > %v", c.Name, c.LB, c.UB))
	}
	idx, val := canonical(c.Idx, c.Val)
	if len(idx) == 0 {
		return // coefficient-free column: nothing to price
	}
	for _, i := range idx {
		if int(i) >= m || i < 0 {
			panic(fmt.Sprintf("mip: pricer column %q references row %d of %d", c.Name, i, m))
		}
	}
	canon := Column{Idx: idx, Val: val, LB: c.LB, UB: c.UB, Obj: c.Obj, Name: c.Name, Tag: c.Tag}
	p.add(canon, vecKey(idx, val, c.LB, c.UB, c.Obj))
}

// improvementAt scores a pooled column by its sense-adjusted reduced cost at
// the dual point: positive means improving, for a minimization problem a
// reduced cost below zero, for maximization one above.
func improvementAt(duals []float64, minimize bool) func(Column) float64 {
	return func(c Column) float64 {
		d := lp.CandidateReducedCost(c.Obj, c.Idx, c.Val, duals)
		if minimize {
			d = -d
		}
		return d
	}
}

// price runs one pricing round at the node optimum res: offer every pricer's
// columns, append the best-priced batch to the committer's instance, publish
// the grown op log to the workers, and age the pool. Returns the number of
// columns appended (0 → no column prices in: the relaxation value is the true
// node bound and the caller stops rounding).
func (s *searcher) price(res lp.Result) int {
	for _, pr := range s.opts.Pricers {
		for _, c := range pr.Price(res.Duals, res.X) {
			offerColumn(s.cols, c, s.inst.NumRows())
		}
	}
	tol := numtol.PriceRedTol
	batch := s.cols.best(improvementAt(res.Duals, s.minimize), tol, tol, poolBatch)
	for _, e := range batch {
		e.added = true
		s.inst.AppendColumn(e.item.Idx, e.item.Val, e.item.LB, e.item.UB, e.item.Obj)
		s.appliedCols = append(s.appliedCols, e.item)
		s.opOrder = append(s.opOrder, opCol)
	}
	if len(batch) > 0 {
		s.eng.publishOps(s.applied, s.appliedCols, s.opOrder)
		s.priceRounds++
	}
	s.cols.endRound()
	return len(batch)
}
