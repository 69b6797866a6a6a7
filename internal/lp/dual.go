package lp

import "math"

// dual runs dual simplex iterations from a (dual-feasible) basis until
// primal feasibility is restored, primal infeasibility is proven, or the
// iteration budget is exhausted. The MIP solver uses this to re-solve after
// branching tightens variable bounds. Reduced costs are maintained
// incrementally (see reduced.go); each iteration costs O(m + nnz).
//
// The ratio test is the long-step (bound-flipping) variant: instead of
// stopping at the first breakpoint, the test walks breakpoints in ratio
// order and flips boundedly-finite nonbasic variables across to their
// opposite bounds for as long as the leaving row's violation stays positive,
// entering only the breakpoint where it would change sign. One iteration
// can thus absorb many would-be degenerate pivots; the flipped variables'
// reduced costs are unchanged (a bound flip moves no dual), so dual
// feasibility is preserved by construction. Under Bland's rule the classic
// single-breakpoint test is kept verbatim for the anti-cycling guarantee.
//
//hot:path
func (s *solver) dual(maxIters int) iterStatus {
	feas := s.opts.FeasTol
	for ; s.iters < maxIters; s.iters++ {
		if s.iters&63 == 0 && s.interrupted() {
			return iterInterrupted
		}
		if !s.dValid {
			s.recomputeReducedCosts()
		}
		// Select the leaving row among primal-infeasible basic variables:
		// dual steepest-edge (infeasibility²/β_i) normally; raw
		// most-infeasible under Bland's rule to keep the anti-cycling
		// behavior unchanged.
		r, bestScore, viol := -1, 0.0, 0.0
		below := false
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			v, isBelow := s.lb[j]-s.xB[i], true
			if v2 := s.xB[i] - s.ub[j]; v2 > v {
				v, isBelow = v2, false
			}
			if v <= feas {
				continue
			}
			score := v
			if !s.bland {
				score = v * v / s.dualW[i]
			}
			if score > bestScore {
				r, bestScore, viol, below = i, score, v, isBelow
			}
		}
		if r == -1 {
			// Certify: basic values may have drifted through incremental
			// updates; recompute them once before declaring feasibility.
			if s.xbFresh {
				return iterOptimal
			}
			s.computeXB()
			s.xbFresh = true
			continue
		}
		// Tableau row r over the nonbasic columns (fills s.arow over the
		// hyper-sparse stack s.arowNZ, and s.rho for the DSE update).
		s.pivotRow(r)

		var q int
		if s.bland {
			q = s.ratioTestBland(below)
		} else {
			q = s.ratioTestLongStep(below, viol)
		}
		if q == -1 {
			// The violated row cannot be repaired: primal infeasible —
			// but only if the violation is real and not drift; certify
			// with freshly recomputed basic values and basis inverse.
			if s.xbFresh && s.sincefac == 0 {
				return iterInfeasible
			}
			if err := s.refactor(); err != nil { //lint:allow hotalloc -- periodic refactorization is the amortized cold path
				return iterNumeric
			}
			s.computeXB()
			s.xbFresh = true
			s.dValid = false
			continue
		}
		// Apply the accumulated bound flips before the pivot: one combined
		// FTRAN updates the basic values for all flipped columns at once.
		s.applyBoundFlips()
		s.ftran(q)
		if math.Abs(s.alpha[r]) <= pivTol {
			// Numerical disagreement between the row and column view;
			// refactorize and retry once, otherwise give up. (Any bound
			// flips taken above remain valid: computeXB rebuilds the basic
			// values from the flipped statuses.)
			if err := s.refactor(); err != nil { //lint:allow hotalloc -- periodic refactorization is the amortized cold path
				return iterNumeric
			}
			s.computeXB()
			s.dValid = false
			s.ftran(q)
			if math.Abs(s.alpha[r]) <= pivTol {
				return iterNumeric
			}
			s.recomputeReducedCosts()
			s.pivotRow(r)
		}
		// Move x_q so that x_B(r) lands exactly on its violated bound.
		leavingCol := int(s.basis[r])
		target := s.lb[leavingCol]
		leaveStat := vsLower
		if !below {
			target = s.ub[leavingCol]
			leaveStat = vsUpper
		}
		s.dseUpdate(r)
		s.applyPivotToReducedCosts(q, leavingCol)
		deltaQ := (s.xB[r] - target) / s.alpha[r]
		enterVal := s.colValue(q) + deltaQ
		for _, i := range s.alphaNZ {
			s.xB[i] -= deltaQ * s.alpha[i]
		}
		s.pivot(q, r, enterVal, leaveStat)
		s.noteProgress(math.Abs(deltaQ))
	}
	return iterLimit
}

// dualEligible reports whether nonbasic column j (tableau coefficient a) may
// enter for a leaving row violated below (true) or above (false): moving x_j
// off its bound must push x_B(r) toward the violated bound, and
// Δx_B(r) = −a·Δx_j.
func (s *solver) dualEligible(j int, a float64, below bool) bool {
	switch s.vstat[j] {
	case vsLower: // Δx_j ≥ 0
		return (below && a < 0) || (!below && a > 0)
	case vsUpper: // Δx_j ≤ 0
		return (below && a > 0) || (!below && a < 0)
	case vsFree:
		return true
	}
	return false
}

// ratioTestBland is the classic single-breakpoint dual ratio test under
// Bland's rule: minimum ratio, ties broken by lowest column index. It scans
// the hyper-sparse stack (sorted ascending, so identical to the historical
// full scan restricted to the row's support). No bound flips are taken.
func (s *solver) ratioTestBland(below bool) int {
	s.flips = s.flips[:0]
	q, bestRatio := -1, math.Inf(1)
	for _, j32 := range s.arowNZ {
		j := int(j32)
		if s.vstat[j] == vsBasic || s.fixedCol(j) {
			continue
		}
		a := s.arow[j]
		if math.Abs(a) <= pivTol || !s.dualEligible(j, a, below) {
			continue
		}
		ratio := math.Abs(s.d[j]) / math.Abs(a)
		if q == -1 || ratio < bestRatio-blandTieTol || (ratio <= bestRatio+blandTieTol && j < q) {
			q, bestRatio = j, ratio
		}
	}
	return q
}

// ratioTestLongStep is the bound-flipping (long-step) dual ratio test.
// Breakpoints — sign-eligible nonbasic columns, keyed by their dual ratio
// |d_j|/|a_j| — are drained from a binary heap into ratio order, then walked
// forward: a breakpoint whose column has finite span is tentatively flipped
// as long as the remaining violation viol − |a_j|·span stays above
// flipSlopeTol and a later breakpoint exists to enter.
//
// Flips taken within ratioTieTol of the final entering ratio are then
// retracted: a flip is only dual-consistent if the pivot's dual step
// strictly passes its breakpoint, so that the flipped column's reduced cost
// actually changes sign. On a degenerate run (all ratios ≈ equal, dual step
// ≈ 0) the retraction removes every tentative flip and the test degrades to
// the classic single-breakpoint rule — without it, zero-step flips oscillate
// forever on massively degenerate models. The entering column is the
// largest |a_j| within the tie window (stability); survivors of the
// retraction land in s.flips for applyBoundFlips. Returns -1 if no
// breakpoint exists (primal infeasibility evidence).
func (s *solver) ratioTestLongStep(below bool, viol float64) int {
	s.flips = s.flips[:0]
	s.bfRatio, s.bfJ = s.bfRatio[:0], s.bfJ[:0]
	for _, j32 := range s.arowNZ {
		j := int(j32)
		if s.vstat[j] == vsBasic || s.fixedCol(j) {
			continue
		}
		a := s.arow[j]
		if math.Abs(a) <= pivTol || !s.dualEligible(j, a, below) {
			continue
		}
		s.bfPush(math.Abs(s.d[j])/math.Abs(a), j32)
	}
	nb := len(s.bfJ)
	if nb == 0 {
		return -1
	}
	// Heap-sort the breakpoints into the scratch arrays (ascending ratio,
	// column-index tie order — fully deterministic).
	s.bpRatio, s.bpJ = s.bpRatio[:0], s.bpJ[:0]
	for len(s.bfJ) > 0 {
		r, j := s.bfPop()
		s.bpRatio = append(s.bpRatio, r) //lint:allow hotalloc -- amortized breakpoint scratch; capacity persists across solves
		s.bpJ = append(s.bpJ, j)
	}
	// Forward walk: tentatively flip while the row stays violated and a
	// later breakpoint remains to enter.
	k := 0
	for k < nb-1 {
		j := int(s.bpJ[k])
		a := math.Abs(s.arow[j])
		span := s.ub[j] - s.lb[j] // +Inf when either bound is open (incl. free)
		if math.IsInf(span, 1) || viol-a*span <= flipSlopeTol {
			break
		}
		viol -= a * span
		k++
		s.ratioPass++
	}
	// Retract tentative flips inside the tie window of the entering ratio.
	stopRatio := s.bpRatio[k]
	for k > 0 && s.bpRatio[k-1] > stopRatio-ratioTieTol {
		k--
	}
	// Entering column: largest pivot magnitude within the tie window.
	q, qAbs := -1, 0.0
	for i := k; i < nb && s.bpRatio[i] <= stopRatio+ratioTieTol; i++ {
		if a := math.Abs(s.arow[s.bpJ[i]]); a > qAbs {
			q, qAbs = int(s.bpJ[i]), a
		}
	}
	s.flips = append(s.flips, s.bpJ[:k]...) //lint:allow hotalloc -- amortized flip scratch; capacity persists across solves
	return q
}

// applyBoundFlips toggles the columns recorded by the long-step ratio test
// across to their opposite bounds and updates the basic values with one
// combined FTRAN: Δx_B = −B⁻¹·Σ A_j·Δx_j. Reduced costs are untouched — a
// bound flip moves no dual variable.
func (s *solver) applyBoundFlips() {
	if len(s.flips) == 0 {
		return
	}
	for _, i := range s.workNZ {
		s.work[i] = 0
	}
	s.flipRows = s.flipRows[:0]
	for _, j32 := range s.flips {
		j := int(j32)
		span := s.ub[j] - s.lb[j]
		var delta float64
		if s.vstat[j] == vsLower {
			s.vstat[j] = vsUpper
			delta = span
		} else {
			s.vstat[j] = vsLower
			delta = -span
		}
		idx, val := s.col(j)
		for k, ri := range idx {
			s.work[ri] += val[k] * delta
		}
		s.flipRows = append(s.flipRows, idx...) //lint:allow hotalloc -- amortized flip-pattern scratch; capacity persists across solves
	}
	s.workNZ = s.ftranNZ(s.work, s.flipRows, s.workNZ)
	for _, i := range s.workNZ {
		s.xB[i] -= s.work[i]
	}
	s.xbFresh = false
	s.boundFlips += len(s.flips)
	s.flips = s.flips[:0]
}

// bfPush inserts a breakpoint into the ratio-test min-heap, ordered by
// (ratio, column) so the walk is deterministic.
func (s *solver) bfPush(ratio float64, j int32) {
	s.bfRatio = append(s.bfRatio, ratio) //lint:allow hotalloc -- amortized heap scratch; capacity persists across solves
	s.bfJ = append(s.bfJ, j)
	i := len(s.bfJ) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.bfRatio[p] < s.bfRatio[i] ||
			(s.bfRatio[p] == s.bfRatio[i] && s.bfJ[p] <= s.bfJ[i]) { //lint:allow floateq -- exact compare of stored heap keys for a deterministic tie-break
			break
		}
		s.bfRatio[p], s.bfRatio[i] = s.bfRatio[i], s.bfRatio[p]
		s.bfJ[p], s.bfJ[i] = s.bfJ[i], s.bfJ[p]
		i = p
	}
}

// bfPop removes and returns the smallest (ratio, column) breakpoint.
func (s *solver) bfPop() (float64, int32) {
	ratio, j := s.bfRatio[0], s.bfJ[0]
	last := len(s.bfJ) - 1
	s.bfRatio[0], s.bfJ[0] = s.bfRatio[last], s.bfJ[last]
	s.bfRatio, s.bfJ = s.bfRatio[:last], s.bfJ[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < last && (s.bfRatio[l] < s.bfRatio[small] ||
			(s.bfRatio[l] == s.bfRatio[small] && s.bfJ[l] < s.bfJ[small])) { //lint:allow floateq -- exact compare of stored heap keys for a deterministic tie-break
			small = l
		}
		if rr < last && (s.bfRatio[rr] < s.bfRatio[small] ||
			(s.bfRatio[rr] == s.bfRatio[small] && s.bfJ[rr] < s.bfJ[small])) { //lint:allow floateq -- exact compare of stored heap keys for a deterministic tie-break
			small = rr
		}
		if small == i {
			break
		}
		s.bfRatio[i], s.bfRatio[small] = s.bfRatio[small], s.bfRatio[i]
		s.bfJ[i], s.bfJ[small] = s.bfJ[small], s.bfJ[i]
		i = small
	}
	return ratio, j
}
