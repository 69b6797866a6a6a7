package lp

import "math"

// Pricing. The primal uses Devex (Harris 1973): approximate steepest-edge
// weights maintained against a reference framework, pricing entering columns
// by d_j²/w_j instead of the raw Dantzig rule |d_j|. The dual uses dual
// steepest-edge (Forrest–Goldfarb 1992) in its cheap-initialization form
// (Koberstein): leaving rows are priced by infeasibility²/β_i where
// β_i ≈ ‖B⁻ᵀe_i‖², weights start at 1 and are corrected incrementally —
// with the leaving row's weight replaced by its exact value each pivot,
// since the pivot row ρ_r = B⁻ᵀe_r is computed anyway.

const (
	// devexMax bounds the primal weights; exceeding it resets the reference
	// framework (all weights back to 1).
	devexMax = 1e8
	// priceSectionMin is the smallest sectional-scan size of the primal's
	// partial pricing; tiny problems degrade to a full scan. The floor is
	// deliberately wide: on the TVNEP models narrow sections pick weak
	// entering columns whose effect compounds through the branch-and-bound
	// trajectory (measured as 2-5x the node count), while the scan itself is
	// a cheap contiguous pass.
	priceSectionMin = 384
)

// devexPrimalUpdate refreshes the entering-column weights for the pivot in
// which column q enters at row r. Must run after pivotRow(r) (it reads
// s.arow over the hyper-sparse stack s.arowNZ) and before the basis swap
// (it relies on the pre-pivot nonbasic set). leaving is the column exiting
// the basis. Columns off the pivot row's support keep their weights, so the
// loop runs over the stack instead of all N columns.
func (s *solver) devexPrimalUpdate(q, r, leaving int) {
	arq := s.arow[q]
	if arq == 0 {
		return
	}
	wq := s.devexW[q]
	scale := wq / (arq * arq)
	reset := false
	for _, j := range s.arowNZ {
		if s.vstat[j] == vsBasic || int(j) == q {
			continue
		}
		a := s.arow[j]
		if a == 0 {
			continue
		}
		if cand := a * a * scale; cand > s.devexW[j] {
			if cand > devexMax {
				reset = true
				break
			}
			s.devexW[j] = cand
		}
	}
	if reset {
		for j := range s.devexW {
			s.devexW[j] = 1
		}
		return
	}
	if wl := scale; wl > 1 {
		s.devexW[leaving] = wl
	} else {
		s.devexW[leaving] = 1
	}
}

// dseUpdate refreshes the dual steepest-edge weights β_i = ‖B⁻ᵀe_i‖² for
// the pivot in which column q enters at row r. s.alpha is the FTRAN'd
// entering column; s.rho must still hold the pivot row B⁻ᵀe_r (from
// pivotRow) and s.tau receives B⁻¹ρ_r, the one extra FTRAN this rule costs
// per iteration. Must run before the basis swap.
//
// With β_r taken exactly as ‖ρ_r‖² (free — ρ_r is already computed), the
// Forrest–Goldfarb recurrence for the post-pivot weights is
//
//	β̂_r = β_r/α_r²
//	β̂_i = β_i − 2·(α_i/α_r)·τ_i + (α_i/α_r)²·β_r,  τ = B⁻¹ρ_r
//
// so rows untouched by the entering column (α_i = 0) keep their weights.
// The exact β_r each iteration is what lets the cheap all-ones
// initialization converge to true steepest-edge behavior after a warm
// start.
//
// The recurrence is only exact when β_i itself is exact. Under the cheap
// initialization a stale (too small) β_i can drive the computed value
// negative — the floor would then overprice that row by orders of magnitude
// and pricing thrashes. The standard safeguard clamps the update from below
// at (α_i/α_r)²·β_r, the part of the new row norm contributed by the pivot
// row, which keeps stale weights from collapsing.
func (s *solver) dseUpdate(r int) {
	alpha := s.alpha
	ar := alpha[r]
	if ar == 0 {
		return
	}
	betaR := 0.0
	for _, i := range s.rhoNZ {
		v := s.rho[i]
		betaR += v * v
	}
	for _, i := range s.tauNZ {
		s.tau[i] = 0
	}
	for _, i := range s.rhoNZ {
		s.tau[i] = s.rho[i]
	}
	s.tauNZ = s.ftranNZ(s.tau, s.rhoNZ, s.tauNZ)
	for _, i32 := range s.alphaNZ {
		i := int(i32)
		if i == r {
			continue
		}
		a := alpha[i]
		if a == 0 {
			continue
		}
		k := a / ar
		nb := s.dualW[i] - 2*k*s.tau[i] + k*k*betaR
		if low := k * k * betaR; nb < low {
			nb = low
		}
		if nb < dseFloor {
			nb = dseFloor
		}
		s.dualW[i] = nb
	}
	nb := betaR / (ar * ar)
	if nb < dseFloor {
		nb = dseFloor
	}
	s.dualW[r] = nb
}

// priceEntering selects an entering column, returning (-1, 0) at
// (partial-pricing-certified) optimality.
//
// Under Bland's rule the full column range is scanned and the first eligible
// index wins (the anti-cycling guarantee). Otherwise the scan is sectional
// partial pricing: starting from a rotating cursor, columns are examined one
// section at a time and the first section containing an eligible candidate
// yields the one with the best Devex score d²/w. Only when every section
// comes up empty — a full rescan of all N columns — is optimality declared,
// so partial pricing never terminates early.
func (s *solver) priceEntering() (int, float64) {
	tol := s.opts.OptTol
	if s.bland {
		for j := 0; j < s.N; j++ {
			st := s.vstat[j]
			if st == vsBasic || s.fixedCol(j) {
				continue // fixed columns can never move
			}
			d := s.d[j]
			var viol float64
			switch st {
			case vsLower:
				viol = -d
			case vsUpper:
				viol = d
			case vsFree:
				viol = math.Abs(d)
			}
			if viol > tol {
				return j, d // Bland: first eligible index
			}
		}
		return -1, 0
	}
	section := s.N / 8
	if section < priceSectionMin {
		section = priceSectionMin
	}
	j := s.priceCursor
	if j >= s.N {
		j = 0
	}
	best, bestScore := -1, 0.0
	for scanned := 0; scanned < s.N; {
		end := scanned + section
		if end > s.N {
			end = s.N
		}
		for ; scanned < end; scanned++ {
			jj := j
			if j++; j == s.N {
				j = 0
			}
			st := s.vstat[jj]
			if st == vsBasic || s.fixedCol(jj) {
				continue
			}
			d := s.d[jj]
			var viol float64
			switch st {
			case vsLower:
				viol = -d
			case vsUpper:
				viol = d
			case vsFree:
				viol = math.Abs(d)
			}
			if viol <= tol {
				continue
			}
			if score := viol * viol / s.devexW[jj]; score > bestScore {
				best, bestScore = jj, score
			}
		}
		if best != -1 {
			s.priceCursor = j
			return best, s.d[best]
		}
	}
	return -1, 0
}
