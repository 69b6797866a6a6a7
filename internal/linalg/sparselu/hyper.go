package sparselu

import (
	"math"
	"math/bits"
)

// Hyper-sparse solves (Hall & McKinnon, "Hyper-sparsity in the revised
// simplex method", 2005). FtranNZ and BtranNZ take the nonzero pattern of
// their right-hand side and sweep only the elimination steps it reaches
// through L and U (or their transposed mirrors). The reach is kept as a
// bitset over steps: a sweep takes the lowest (or, for the backward solves,
// highest) set bit, applies that step exactly as the dense loop would, and
// sets the bits of the steps its scatter touches. Every edge of L, U and
// the mirrors points strictly forward or strictly backward in elimination
// order, so a touched step always lies ahead of the sweep and the bitset
// hands the steps out in elimination order. A step is expanded only when
// its value is nonzero — the same test that makes the dense loops skip it —
// so the sweep performs the dense loops' floating-point operations in the
// dense loops' order and the results are bit-identical, signed zeros
// included.
//
// Once a sweep has marked more than m/denseDiv steps the solve is no longer
// hyper-sparse, and it finishes from where it stands with the dense loops:
// same arithmetic, same order, so the switch is invisible in the result.

// denseDiv sets the dense switch: a solve whose reach grows past m/denseDiv
// elimination steps finishes with the dense loops. Hall & McKinnon switch
// at 10%; m/4 and m/20 measured the same on the paper-scale LP.
const denseDiv = 10

// growSolve sizes the hyper-sparse solve scratch for an m-row basis. Both
// buffers are all-zero between solves: every solve clears the bits and
// accumulator entries it sets.
func (ws *Workspace) growSolve(m int) {
	if nw := (m + 63) >> 6; cap(ws.mark) < nw {
		ws.mark = make([]uint64, nw)
	} else {
		ws.mark = ws.mark[:nw]
	}
	if cap(ws.acc) < m {
		ws.acc = make([]float64, m)
	} else {
		ws.acc = ws.acc[:m]
	}
}

// setBit marks step k and reports whether it was newly marked.
func setBit(mark []uint64, k int32) bool {
	w, b := k>>6, uint64(1)<<uint(k&63)
	if mark[w]&b != 0 {
		return false
	}
	mark[w] |= b
	return true
}

// clearWords zeroes mark[lo:hi].
func clearWords(mark []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		mark[i] = 0
	}
}

// allPositions fills out with 0..m-1: the pattern of a dense result.
func allPositions(out []int32, m int) []int32 {
	out = out[:m]
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// drain writes the set bits of mark into out in ascending order, clearing
// them, and returns the filled prefix.
func drain(mark []uint64, out []int32) []int32 {
	n := 0
	for wi, w := range mark {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			out[n] = int32(wi<<6 | b)
			n++
		}
		mark[wi] = 0
	}
	return out[:n]
}

// FtranNZ solves B·x = v in place exactly like Ftran, bit for bit, but
// visits only the elimination steps the right-hand side reaches. nz lists
// the rows of v that may hold a value other than +0 (repeats allowed); every
// other entry of v must be +0. out must have length at least m and may alias
// nz. The returned prefix of out lists, in ascending order, every basis
// position of x that may hold a value other than +0; sparse is false when the
// reach passed the dense switch and the solve finished with the dense loops,
// in which case the pattern lists all m positions. ws supplies the solve
// scratch and must not be in concurrent use.
//
//hot:path
func (f *Factors) FtranNZ(v []float64, nz, out []int32, ws *Workspace) (pattern []int32, sparse bool) {
	return f.ftranNZ(v, nz, out, ws, f.m/denseDiv)
}

// ftranNZ is FtranNZ with an explicit dense switch: the solve goes dense
// once more than limit steps are marked.
func (f *Factors) ftranNZ(v []float64, nz, out []int32, ws *Workspace, limit int) ([]int32, bool) {
	m := f.m
	if len(nz) > limit {
		f.Ftran(v)
		return allPositions(out, m), false
	}
	ws.growSolve(m)
	mark := ws.mark
	nw := len(mark)
	n := 0 // steps marked so far (the reach)
	for _, r := range nz {
		if setBit(mark, f.rowStep[r]) {
			n++
		}
	}

	// L solve, ascending steps. The step list goes to out: nz is consumed.
	cnt := 0
	for wi := 0; wi < nw; wi++ {
		for mark[wi] != 0 {
			b := bits.TrailingZeros64(mark[wi])
			mark[wi] &^= 1 << uint(b)
			k := wi<<6 | b
			out[cnt] = int32(k)
			cnt++
			val := v[f.rowPiv[k]]
			if val == 0 {
				continue
			}
			for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
				r := f.lrow[e]
				v[r] -= f.lval[e] * val
				if setBit(mark, f.rowStep[r]) {
					n++
				}
			}
			if n > limit {
				clearWords(mark, wi, nw)
				f.ftranLDense(v, k+1)
				f.ftranUDense(v, m-1)
				f.ftranPermute(v)
				f.ftranEtas(v, nil)
				return allPositions(out, m), false
			}
		}
	}

	// U solve, descending steps from every step the L solve visited. Each
	// visited step's value is stored back in its pivot row, so the
	// permutation below (and a dense finish) reads x from v.
	for _, k := range out[:cnt] {
		setBit(mark, k)
	}
	cnt = 0
	for wi := nw - 1; wi >= 0; wi-- {
		for mark[wi] != 0 {
			b := 63 - bits.LeadingZeros64(mark[wi])
			mark[wi] &^= 1 << uint(b)
			k := wi<<6 | b
			out[cnt] = int32(k)
			cnt++
			t := v[f.rowPiv[k]]
			if t == 0 {
				continue
			}
			t /= f.udiag[k]
			v[f.rowPiv[k]] = t
			for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
				j := f.urow[e]
				v[f.rowPiv[j]] -= f.uval[e] * t
				if setBit(mark, j) {
					n++
				}
			}
			if n > limit {
				clearWords(mark, 0, wi+1)
				f.ftranUDense(v, k-1)
				f.ftranPermute(v)
				f.ftranEtas(v, nil)
				return allPositions(out, m), false
			}
		}
	}

	// Permute the visited steps to basis positions. Every row that can hold
	// a value other than +0 is the pivot row of a visited step.
	x := f.scratch
	for _, k := range out[:cnt] {
		x[k] = v[f.rowPiv[k]]
		v[f.rowPiv[k]] = 0
	}
	for _, k := range out[:cnt] {
		p := f.order[k]
		v[p] = x[k]
		setBit(mark, p)
	}
	f.ftranEtas(v, mark)
	return drain(mark, out), true
}

// ftranLDense runs the dense L solve from step k0 on (scatter form,
// skipping steps whose value is zero).
func (f *Factors) ftranLDense(v []float64, k0 int) {
	for k := k0; k < f.m; k++ {
		val := v[f.rowPiv[k]]
		if val == 0 {
			continue
		}
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			v[f.lrow[e]] -= f.lval[e] * val
		}
	}
}

// ftranUDense runs the dense U solve from step k0 down to step 0, storing
// each step's value back in its pivot row.
func (f *Factors) ftranUDense(v []float64, k0 int) {
	for k := k0; k >= 0; k-- {
		t := v[f.rowPiv[k]]
		if t == 0 {
			continue
		}
		t /= f.udiag[k]
		v[f.rowPiv[k]] = t
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			v[f.rowPiv[f.urow[e]]] -= f.uval[e] * t
		}
	}
}

// ftranPermute moves the step values stored in the pivot rows to basis
// positions.
func (f *Factors) ftranPermute(v []float64) {
	x := f.scratch
	for k := 0; k < f.m; k++ {
		x[k] = v[f.rowPiv[k]]
	}
	for k := 0; k < f.m; k++ {
		v[f.order[k]] = x[k]
	}
}

// ftranEtas applies the eta file to v in pivot order: B = B₀·E₁⋯E_k, so
// x = E_k⁻¹·…·E₁⁻¹·B₀⁻¹·v. With a non-nil mark it also marks every position
// an eta writes.
func (f *Factors) ftranEtas(v []float64, mark []uint64) {
	for i := range f.etas {
		e := &f.etas[i]
		pv := v[e.r]
		if pv == 0 {
			continue
		}
		pv /= e.piv
		idx := f.etaIdx[e.off : e.off+e.n]
		val := f.etaVal[e.off : e.off+e.n]
		for t, ix := range idx {
			v[ix] -= val[t] * pv
		}
		if mark != nil {
			for _, ix := range idx {
				setBit(mark, ix)
			}
		}
		v[e.r] = pv
	}
}

// BtranNZ solves Bᵀ·y = v in place exactly like Btran, bit for bit, but
// runs the triangular solves over only the elimination steps the
// right-hand side reaches. nz lists the basis positions of v that may hold
// a value other than +0 (repeats allowed); every other entry must be +0. out
// must have length at least m and may alias nz. The returned prefix of out
// lists, in ascending order, every row of y that may hold a value other than
// +0; sparse is false when the solve finished with the dense loops, in which
// case the pattern lists all m rows. The eta-file pass always runs dense:
// it is a gather over every eta. ws supplies the solve scratch and must not
// be in concurrent use.
//
//hot:path
func (f *Factors) BtranNZ(v []float64, nz, out []int32, ws *Workspace) (pattern []int32, sparse bool) {
	return f.btranNZ(v, nz, out, ws, f.m/denseDiv)
}

// btranNZ is BtranNZ with an explicit dense switch.
func (f *Factors) btranNZ(v []float64, nz, out []int32, ws *Workspace, limit int) ([]int32, bool) {
	m := f.m
	if len(nz) > limit {
		f.Btran(v)
		return allPositions(out, m), false
	}
	f.btranEtas(v)
	ws.growSolve(m)
	mark, z := ws.mark, ws.acc
	nw := len(mark)
	// Seed the step accumulator z (all +0 on entry) from the caller's
	// positions and from every eta pivot position the eta pass left other
	// than +0, clearing v as it is read: v is rewritten by row below.
	n := 0
	for _, p := range nz {
		if k := f.posStep[p]; setBit(mark, k) {
			n++
			z[k] = v[p]
			v[p] = 0
		}
	}
	for i := range f.etas {
		p := f.etas[i].r
		if math.Float64bits(v[p]) != 0 {
			k := f.posStep[p]
			setBit(mark, k)
			n++
			z[k] = v[p]
			v[p] = 0
		}
	}
	if n > limit {
		clearWords(mark, 0, nw)
		f.btranDense(v, z, 0)
		return allPositions(out, m), false
	}

	// Uᵀ solve, ascending steps.
	cnt := 0
	for wi := 0; wi < nw; wi++ {
		for mark[wi] != 0 {
			b := bits.TrailingZeros64(mark[wi])
			mark[wi] &^= 1 << uint(b)
			k := wi<<6 | b
			out[cnt] = int32(k)
			cnt++
			t := z[k]
			if t == 0 {
				continue
			}
			t /= f.udiag[k]
			z[k] = t
			for e := f.urptr[k]; e < f.urptr[k+1]; e++ {
				j := f.urcol[e]
				z[j] -= f.urval[e] * t
				if setBit(mark, j) {
					n++
				}
			}
			if n > limit {
				clearWords(mark, wi, nw)
				f.btranDense(v, z, k+1)
				return allPositions(out, m), false
			}
		}
	}

	// Lᵀ solve, descending steps from every step the Uᵀ solve visited. A
	// visited step is final, so its accumulator entry is cleared as its
	// value moves to its pivot row.
	for _, k := range out[:cnt] {
		setBit(mark, k)
	}
	cnt = 0
	for wi := nw - 1; wi >= 0; wi-- {
		for mark[wi] != 0 {
			b := 63 - bits.LeadingZeros64(mark[wi])
			mark[wi] &^= 1 << uint(b)
			k := wi<<6 | b
			out[cnt] = int32(k)
			cnt++
			t := z[k]
			z[k] = 0
			v[f.rowPiv[k]] = t
			if t == 0 {
				continue
			}
			for e := f.lrptr[k]; e < f.lrptr[k+1]; e++ {
				j := f.lrcol[e]
				z[j] -= f.lrval[e] * t
				if setBit(mark, j) {
					n++
				}
			}
			if n > limit {
				clearWords(mark, 0, wi+1)
				f.btranLTDense(v, z, k-1)
				return allPositions(out, m), false
			}
		}
	}
	for _, k := range out[:cnt] {
		setBit(mark, f.rowPiv[k])
	}
	return drain(mark, out), true
}

// btranEtas applies the eta transposes in reverse pivot order.
func (f *Factors) btranEtas(v []float64) {
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		s := v[e.r]
		idx := f.etaIdx[e.off : e.off+e.n]
		val := f.etaVal[e.off : e.off+e.n]
		for t, ix := range idx {
			s -= val[t] * v[ix]
		}
		v[e.r] = s / e.piv
	}
}

// btranDense runs the dense Uᵀ solve from step k0 on over the step
// accumulator z, then the whole Lᵀ solve (see btranLTDense).
func (f *Factors) btranDense(v, z []float64, k0 int) {
	for k := k0; k < f.m; k++ {
		t := z[k]
		if t == 0 {
			continue
		}
		t /= f.udiag[k]
		z[k] = t
		for e := f.urptr[k]; e < f.urptr[k+1]; e++ {
			z[f.urcol[e]] -= f.urval[e] * t
		}
	}
	f.btranLTDense(v, z, f.m-1)
}

// btranLTDense runs the dense Lᵀ solve from step k0 down to step 0: once
// step k is final its value goes to row rowPiv[k] and feeds the earlier
// steps whose L columns reference that row. It then clears z.
func (f *Factors) btranLTDense(v, z []float64, k0 int) {
	for k := k0; k >= 0; k-- {
		t := z[k]
		v[f.rowPiv[k]] = t
		if t == 0 {
			continue
		}
		for e := f.lrptr[k]; e < f.lrptr[k+1]; e++ {
			z[f.lrcol[e]] -= f.lrval[e] * t
		}
	}
	for k := range z {
		z[k] = 0
	}
}
