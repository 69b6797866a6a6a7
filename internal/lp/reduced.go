package lp

import "slices"

// Incrementally maintained reduced costs. Recomputing duals from scratch is
// O(m²) per iteration; the standard product-form update after a pivot is
// O(m + nnz), which dominates overall solver speed on the TVNEP models.

// recomputeReducedCosts refreshes s.d from the current basis: O(m² + nnz).
func (s *solver) recomputeReducedCosts() {
	s.computeDuals()
	for j := 0; j < s.N; j++ {
		if s.vstat[j] == vsBasic {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.reducedCost(j)
	}
	s.dValid = true
	s.dFresh = true
}

// pivotRow fills s.arow[j] = (e_r·B⁻¹)·A_j for every column j (the r-th row
// of the simplex tableau; consumers skip basic columns). It exploits the
// sparsity of ρ = e_r·B⁻¹ twice: the scatter is row-wise — only matrix rows
// with a nonzero multiplier are touched — and every touched column is pushed
// onto the hyper-sparse index stack s.arowNZ, so the downstream ratio test,
// reduced-cost update and Devex update iterate the row's support instead of
// all N columns. Entries of the previous pivot row are cleared through the
// old stack, never by a full sweep.
//
// The stack is left in discovery order: every consumer is insensitive to it
// — the long-step ratio test orders its breakpoints through a heap keyed by
// the strict (ratio, column) total order, and the reduced-cost and Devex
// updates touch each column independently — so the per-pivot sort this loop
// used to pay (the single hottest non-kernel cost on the benchmark models)
// buys nothing. The one exception is Bland's rule, whose anti-cycling
// guarantee is stated over ascending column order; its scan sorts here,
// on the rare degeneracy-triggered iterations that use it.
func (s *solver) pivotRow(r int) {
	s.btranRow(r)
	for _, j := range s.arowNZ {
		s.arow[j] = 0
		s.arowTag[j] = false
	}
	s.arowNZ = s.arowNZ[:0]
	n, nm := s.inst.n, s.nm
	for _, i32 := range s.rhoNZ {
		i := int(i32)
		rv := s.rho[i]
		if rv == 0 {
			continue
		}
		idx, val := s.inst.rowData(i)
		for k, j := range idx {
			if !s.arowTag[j] {
				s.arowTag[j] = true
				s.arowNZ = append(s.arowNZ, j) //lint:allow hotalloc -- amortized sparse-row scratch; steady state is pre-reserved
			}
			s.arow[j] += rv * val[k]
		}
		// Columns appended after the row's storage was written live in the
		// row-wise overlay (see Instance.apRowIdx).
		if ap := s.inst.apRowIdx; i < len(ap) && ap[i] != nil {
			for k, j := range ap[i] {
				if !s.arowTag[j] {
					s.arowTag[j] = true
					s.arowNZ = append(s.arowNZ, j) //lint:allow hotalloc -- amortized sparse-row scratch; steady state is pre-reserved
				}
				s.arow[j] += rv * s.inst.apRowVal[i][k]
			}
		}
		s.arow[n+i] = -rv // slack column −e_i
		s.arow[nm+i] = rv // artificial column +e_i
		if !s.arowTag[n+i] {
			s.arowTag[n+i] = true
			s.arowNZ = append(s.arowNZ, int32(n+i)) //lint:allow hotalloc -- amortized sparse-row scratch; steady state is pre-reserved
		}
		if !s.arowTag[nm+i] {
			s.arowTag[nm+i] = true
			s.arowNZ = append(s.arowNZ, int32(nm+i)) //lint:allow hotalloc -- amortized sparse-row scratch; steady state is pre-reserved
		}
	}
	if s.bland {
		slices.Sort(s.arowNZ)
	}
}

// applyPivotToReducedCosts updates s.d for the pivot in which column q
// enters at row r (whose basic variable `leaving` exits). Must run after
// pivotRow(r) and BEFORE the basis swap (it relies on the pre-pivot
// nonbasic set). The dual update is y' = y + θ·e_r·B⁻¹ with θ = d_q/α_rq,
// hence d_j' = d_j − θ·α_row_j, d_leaving' = −θ and d_q' = 0. Columns off
// the pivot row's support have α_row_j = 0 and are untouched, so the loop
// runs over the hyper-sparse stack.
func (s *solver) applyPivotToReducedCosts(q, leaving int) {
	theta := s.d[q] / s.arow[q]
	for _, j := range s.arowNZ {
		if s.vstat[j] == vsBasic || int(j) == q {
			continue
		}
		if a := s.arow[j]; a != 0 {
			s.d[j] -= theta * a
		}
	}
	s.d[leaving] = -theta
	s.d[q] = 0
	s.dFresh = false
}
