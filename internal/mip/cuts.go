package mip

// Lazy cut separation. Instead of emitting every known valid inequality into
// the root LP up front, callers register Separator callbacks that examine
// fractional relaxation points and return the inequalities those points
// violate. The searcher keeps the returned rows in the deterministic pool of
// pool.go (deduplicated by an exact canonical-row key), appends the most
// violated batch to the LP, and hot-restarts the same node from its own final
// basis — the appended rows ride the bordered LU extension in internal/lp, so
// a separation round costs a handful of dual pivots, not a refactorization.
//
// Separation runs only on the serial committer. Workers learn about committed
// cut rows through an atomically published append-only snapshot (see
// engine.go) and replay them onto their own instances before solving, so the
// committed search — and therefore the reported objective, bound, node and
// iteration counts — stays bit-identical for any worker count.

import (
	"fmt"
	"math"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// Cut is one linear inequality LB ≤ Σₖ Val[k]·x[Idx[k]] ≤ UB over the
// problem's structural columns. One-sided rows use ±Inf for the missing
// bound. Name is a diagnostic label carried through to certification.
type Cut struct {
	Idx  []int32
	Val  []float64
	LB   float64
	UB   float64
	Name string
}

// Separator generates valid inequalities violated by a fractional relaxation
// point. The contract has two parts, both load-bearing:
//
//   - Validity: every returned cut must be satisfied by every feasible
//     integral solution of the MIP (global validity). The search keeps node
//     bounds, incumbents and warm bases across separation rounds, which is
//     only sound for rows that never exclude an integral feasible point.
//   - Determinism: Separate must be a pure function of x (same point, same
//     cuts, same order). The committer calls it exactly once per separation
//     round on deterministic points; any internal randomness or iteration
//     over unordered maps would break the bit-identical-across-workers
//     guarantee.
//
// Separate may return cuts that are not violated by x (they are pooled for
// later rounds) and may return duplicates (the pool deduplicates), but it
// must not mutate x.
type Separator interface {
	Separate(x []float64) []Cut
}

// CutStats summarizes the separation work of one solve.
type CutStats struct {
	// RowsAtRoot is the number of LP rows the root relaxation started with
	// (the statically emitted constraints).
	RowsAtRoot int
	// SeparatedRows is the number of cut rows appended by separation over
	// the whole search.
	SeparatedRows int
	// Rounds is the number of separation rounds that appended at least one
	// row.
	Rounds int
	// Offered is the total number of cuts returned by separators (before
	// deduplication).
	Offered int
	// PoolHits counts offered cuts that were already pooled — the dedup
	// rate is PoolHits/Offered.
	PoolHits int
	// Evicted counts pooled-but-never-appended cuts dropped by age-based
	// eviction.
	Evicted int
}

// rootCutSeedSlack is the activity margin of the root seeding round: the
// first separation round at the root also appends pooled cuts that are
// within this slack of binding at the root optimum, not just violated ones.
// Near-active rows do not cut the current point, but they pin down which of
// the relaxation's alternate optima later re-solves land on — the same
// vertex-steering a static build gets from emitting the family up front —
// and on the benchmark models that steering is worth a ~2x smaller proof
// tree. Separators opt in simply by returning near-active members (the
// Separator contract always allowed unviolated cuts).
const rootCutSeedSlack = 0.5

// rowViolation is the signed amount by which x violates the cut: positive
// when violated, negative (the slack to the nearest bound) when satisfied.
func rowViolation(c Cut, x []float64) float64 {
	act := 0.0
	for k, j := range c.Idx {
		act += c.Val[k] * x[j]
	}
	v := math.Inf(-1)
	if !math.IsInf(c.LB, -1) {
		v = c.LB - act
	}
	if d := act - c.UB; d > v {
		v = d
	}
	if math.IsInf(v, -1) {
		v = 0 // bound-free row: vacuously satisfied
	}
	return v
}

// offerCut canonicalizes the cut and pools it unless an identical row is
// already present. n is the structural column count; rows over
// out-of-range columns panic here, with the separator's cut name, rather
// than deep inside lp.AppendRow.
func offerCut(p *pool[Cut], c Cut, n int) {
	p.offered++
	idx, val := canonical(c.Idx, c.Val)
	if len(idx) == 0 {
		return // empty row: nothing to separate
	}
	for _, j := range idx {
		if int(j) >= n || j < 0 {
			panic(fmt.Sprintf("mip: separator cut %q references column %d of %d", c.Name, j, n))
		}
	}
	canon := Cut{Idx: idx, Val: val, LB: c.LB, UB: c.UB, Name: c.Name}
	p.add(canon, vecKey(idx, val, c.LB, c.UB))
}

// violationAt scores a pooled cut by rowViolation at x.
func violationAt(x []float64) func(Cut) float64 {
	return func(c Cut) float64 { return rowViolation(c, x) }
}

// separate runs one separation round at x: offer every separator's cuts,
// append the most violated batch to the committer's instance, publish the
// grown cut list to the workers, and age the pool. Returns the number of
// rows appended (0 → the point is cut-free and the caller stops rounding).
// A seed round (the first root round) drops the batch cap and the violation
// floor to -rootCutSeedSlack so the near-active family members land in the
// root LP together.
func (s *searcher) separate(x []float64, seed bool) int {
	n := s.prob.LP.NumCols()
	for _, sep := range s.opts.Separators {
		for _, c := range sep.Separate(x) {
			offerCut(s.cuts, c, n)
		}
	}
	limit, floor := poolBatch, numtol.CutViolTol
	if seed {
		limit, floor = len(s.cuts.entries), -rootCutSeedSlack
	}
	batch := s.cuts.best(violationAt(x), numtol.CutViolTol, floor, limit)
	for _, e := range batch {
		e.added = true
		s.inst.AppendRow(e.item.Idx, e.item.Val, e.item.LB, e.item.UB)
		s.applied = append(s.applied, e.item)
		s.opOrder = append(s.opOrder, opCut)
	}
	if len(batch) > 0 {
		s.eng.publishOps(s.applied, s.appliedCols, s.opOrder)
		s.sepRounds++
	}
	s.cuts.endRound()
	return len(batch)
}

// solveSeparated resolves the node's relaxation, interleaving pricing and
// separation rounds: while a round adds columns or cuts, the same node is
// re-solved at the new epoch, warm-started from its own final basis and
// factors (appended rows ride the bordered factor extension, appended
// columns the basis remap + primal restart). Pricing runs first and to
// convergence — the relaxation value is only a valid node bound once no
// column prices in, so it runs at every node, on integral points too, and
// its per-node cap (maxPriceRounds) is a safety net rather than a budget.
// Cut rounds follow: root nodes get rootCutRounds, tree nodes
// treeCutRounds. Committed iteration accounting for every round happens
// here, so the totals stay deterministic.
func (s *searcher) solveSeparated(nd *node) (*lpTask, bool) {
	maxCutRounds := 0
	if s.cuts != nil {
		maxCutRounds = treeCutRounds
		if nd.col == -1 {
			maxCutRounds = rootCutRounds
		}
	}
	cutRounds, priceRounds := 0, 0
	for {
		t, ok := s.eng.resolve(nd)
		if !ok {
			return nil, false
		}
		res := t.res
		s.iters += res.Iterations
		s.taskIters += res.Iterations
		s.bflips += res.BoundFlips
		s.rpasses += res.RatioPasses
		s.sparseSv += res.SparseSolves
		s.denseSv += res.DenseSolves
		s.lastWorker = t.worker
		if res.Status != lp.StatusOptimal {
			return t, true
		}
		root := nd.col == -1
		if s.cols != nil && priceRounds < maxPriceRounds && s.price(res) > 0 {
			// Hot-restart the same node at the new epoch from its own final
			// basis (the appended columns enter nonbasic, so the basis stays
			// valid after the remap); the stale task — and its speculated
			// children, built from the restricted point — is discarded by
			// the epoch check in engine.resolve.
			priceRounds++
			nd.basis, nd.fac = res.Basis, res.Factors
			nd.task = nil
			continue
		}
		// Integral points (children == nil) satisfy every valid cut by the
		// Separator contract, so only fractional optima are worth separating.
		if cutRounds >= maxCutRounds || t.children == nil {
			return t, true
		}
		if s.separate(res.X, root && cutRounds == 0) == 0 {
			return t, true
		}
		cutRounds++
		// Hot-restart from the node's own final basis, as above. The root
		// instead restarts cold after a cut round: its relaxation is solved
		// once per search, and a from-scratch trajectory over the
		// strengthened row set reaches the same vertex a static build would
		// start from, which is what makes the two pipelines' trees
		// comparable.
		nd.basis, nd.fac = res.Basis, res.Factors
		if root {
			nd.basis, nd.fac = nil, nil
		}
		nd.task = nil
	}
}
