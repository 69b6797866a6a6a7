// Package sparselu provides the sparse basis kernel of the LP solver: an LU
// factorization of the (sparse, square) simplex basis with a Markowitz-style
// fill-reducing pivot order and threshold partial pivoting, forward/backward
// solves (FTRAN/BTRAN), and eta-file (product-form-of-the-inverse) updates
// so that a pivot costs O(nnz) instead of a refactorization.
//
// The factorization is left-looking (Gilbert–Peierls style): columns are
// eliminated in a static least-count order — the column half of the Markowitz
// count — and within each column the pivot row is chosen among entries
// within a threshold of the largest magnitude, preferring the row with the
// smallest static count (the row half). All choices are deterministic, so
// repeated factorizations of the same basis are bit-for-bit identical.
//
// Both triangular factors are additionally mirrored in transposed (row-major)
// form so that Btran runs as a pair of scatter-style solves, and the
// row→step and position→step inverses of the pivot order are kept beside
// them. Ftran and Btran loop over all m elimination steps, skipping those
// whose value is zero. FtranNZ and BtranNZ (hyper.go) are their
// hyper-sparse forms (Hall & McKinnon): given the nonzero pattern of the
// right-hand side they sweep only the elimination steps it reaches through
// L, U and the mirrors, in elimination order off a bitset, and return the
// sorted pattern of the result. They expand a step under exactly the test
// that makes the dense loops skip it, so they perform the same arithmetic in
// the same order and their results are bit-identical, signed zeros
// included. A solve whose reach passes m/10 steps finishes with the dense
// loops from where it stands, which keeps dense solves at their dense cost.
// BtranNZ's product-form eta pass always runs dense: it is a gather over
// every eta.
//
// Allocation discipline: the hot simplex loop must not allocate. Eta vectors
// live in per-Factors append-only arenas (amortized zero-allocation growth),
// refactorizations reuse the symbolic scratch of a caller-owned Workspace and
// the storage of the destination Factors (FactorizeInto), and bordered
// extensions can likewise reuse a destination (ExtendInto). The convenience
// wrappers Factorize, Extend and Clone allocate fresh storage.
package sparselu

import (
	"errors"
	"math"
	"sort"
)

// ErrSingular is returned when the basis matrix is numerically singular.
var ErrSingular = errors.New("sparselu: singular basis")

const (
	// singTol is the absolute magnitude below which a pivot candidate is
	// considered zero (matches the dense kernel this package replaced).
	singTol = 1e-13
	// threshRel is the relative threshold for partial pivoting: any row
	// within threshRel of the column's largest magnitude is pivot-eligible,
	// and the sparsest such row is chosen.
	threshRel = 0.1
	// dropTol drops negligible fill-in from L, U and eta vectors.
	dropTol = 1e-12
)

// eta is one product-form update: the basis column at position r was
// replaced, with FTRAN'd entering column alpha. The off-pivot entries live in
// the owning Factors' arena at [off, off+n) so that updates never allocate in
// steady state and copies relocate cleanly.
type eta struct {
	r   int32
	n   int32
	off int32
	piv float64 // alpha[r]
}

// Factors is a factorized basis B = L·U (modulo permutations) together with
// an eta file of post-factorization pivots. The base factors are immutable
// after Factorize; Update appends etas. Not safe for concurrent use (the
// solves share scratch space).
type Factors struct {
	m int

	order  []int32 // elimination step k processed basis position order[k]
	rowPiv []int32 // original row pivotal at step k

	// L in column form per elimination step (unit diagonal implicit);
	// row indices are original row indices.
	lptr []int32
	lrow []int32
	lval []float64

	// U in column form per elimination step; row indices are earlier step
	// numbers. The diagonal is stored separately.
	uptr  []int32
	urow  []int32
	uval  []float64
	udiag []float64

	// Transposed mirrors for the hyper-sparse Btran. U by row step: for step
	// j, the steps k > j with U[j,k] ≠ 0. L by pivotal step: for step k, the
	// earlier steps k' whose L column holds an entry at row rowPiv[k].
	urptr []int32
	urcol []int32
	urval []float64
	lrptr []int32
	lrcol []int32
	lrval []float64

	// Inverse permutations for the hyper-sparse solves: the step at which
	// each original row is pivotal, and the step that processed each basis
	// position (the inverses of rowPiv and order).
	rowStep []int32
	posStep []int32

	etas    []eta
	etaIdx  []int32   // arena backing eta off-pivot indices
	etaVal  []float64 // arena backing eta off-pivot values
	etaNNZ  int
	scratch []float64 // length m, used by Ftran/Btran
}

// Workspace holds the reusable symbolic and numeric scratch of the
// factorization and extension kernels. A Workspace may be reused across any
// number of FactorizeInto/ExtendInto calls (growing on demand, never
// shrinking) but must not be shared between concurrent calls.
type Workspace struct {
	w       []float64 // dense accumulator for the current column
	rowPos  []int32   // original row → elimination step, or -1
	visited []bool
	post    []int32 // DFS postorder (reverse = topological)
	stack   []int32 // DFS stack of rows
	estate  []int32 // per-row DFS edge cursor
	rcount  []int32 // static per-row entry counts
	cnt     []int32 // transpose-mirror counting scratch
	xbuf    []float64

	// Hyper-sparse solve scratch (see hyper.go), all-zero between solves:
	// a bitset over elimination steps or positions, and a step-indexed
	// accumulator.
	mark []uint64
	acc  []float64
}

// NewWorkspace returns an empty workspace; storage grows on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

func (ws *Workspace) grow(m int) {
	if cap(ws.w) < m {
		ws.w = make([]float64, m)
		ws.rowPos = make([]int32, m)
		ws.visited = make([]bool, m)
		ws.estate = make([]int32, m)
		ws.rcount = make([]int32, m)
		ws.cnt = make([]int32, m+1)
		ws.post = growI32(ws.post, m)[:0]
		ws.stack = growI32(ws.stack, m)[:0]
		return
	}
	ws.w = ws.w[:m]
	ws.rowPos = ws.rowPos[:m]
	ws.visited = ws.visited[:m]
	ws.estate = ws.estate[:m]
	ws.rcount = ws.rcount[:m]
	ws.cnt = ws.cnt[:m+1]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Factorize computes the sparse LU factorization of the m×m basis whose
// column at position p has row indices colIdx[p] and values colVal[p].
// The input slices are not retained. Hot callers should hold a Workspace and
// a destination and use FactorizeInto instead.
func Factorize(m int, colIdx [][]int32, colVal [][]float64) (*Factors, error) {
	f := &Factors{}
	if err := FactorizeInto(f, NewWorkspace(), m, colIdx, colVal); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto computes the sparse LU factorization of the m×m basis into
// dst, reusing dst's storage when its capacity allows. dst must not be
// shared with (cloned into, copied from, handed off to) any other live
// Factors: its backing arrays are overwritten. On error dst is left in an
// unspecified state and must not be used for solves.
func FactorizeInto(dst *Factors, ws *Workspace, m int, colIdx [][]int32, colVal [][]float64) error {
	f := dst
	f.m = m
	f.order = growI32(f.order, m)
	f.rowPiv = growI32(f.rowPiv, m)
	f.lptr = growI32(f.lptr, m+1)
	f.uptr = growI32(f.uptr, m+1)
	f.udiag = growF64(f.udiag, m)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.urow = f.urow[:0]
	f.uval = f.uval[:0]
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.etaNNZ = 0
	f.scratch = growF64(f.scratch, m)
	if m == 0 {
		f.lptr[0], f.uptr[0] = 0, 0
		f.buildMirrors(ws)
		return nil
	}
	ws.grow(m)

	// Static Markowitz counts: column elimination order by ascending nnz
	// (ties by position, for determinism) and per-row entry counts for the
	// pivot-row tie-break.
	for p := 0; p < m; p++ {
		f.order[p] = int32(p)
	}
	sort.SliceStable(f.order, func(a, b int) bool {
		return len(colIdx[f.order[a]]) < len(colIdx[f.order[b]])
	})
	rcount := ws.rcount
	for r := range rcount {
		rcount[r] = 0
	}
	for p := 0; p < m; p++ {
		for _, r := range colIdx[p] {
			rcount[r]++
		}
	}

	w := ws.w
	rowPos := ws.rowPos
	for r := 0; r < m; r++ {
		w[r] = 0
		rowPos[r] = -1
		ws.visited[r] = false
	}
	// Gilbert–Peierls workspaces: the DFS discovers the nonzero pattern of
	// L_partial⁻¹·A_j so both the triangular solve and the pivot search
	// touch only (fill-in) nonzeros instead of all m rows.
	visited := ws.visited
	post := ws.post[:0]
	stack := ws.stack[:0]
	estate := ws.estate

	f.lptr[0], f.uptr[0] = 0, 0
	for k := 0; k < m; k++ {
		j := f.order[k]
		// Symbolic phase: reachable rows from the column's pattern through
		// the already-computed L columns.
		post = post[:0]
		for _, r0 := range colIdx[j] {
			if visited[r0] {
				continue
			}
			stack = append(stack, r0)
			visited[r0] = true
			if t := rowPos[r0]; t >= 0 {
				estate[r0] = f.lptr[t]
			}
			for len(stack) > 0 {
				r := stack[len(stack)-1]
				t := rowPos[r]
				advanced := false
				if t >= 0 {
					for e := estate[r]; e < f.lptr[t+1]; e++ {
						rr := f.lrow[e]
						if !visited[rr] {
							estate[r] = e + 1
							visited[rr] = true
							if tt := rowPos[rr]; tt >= 0 {
								estate[rr] = f.lptr[tt]
							}
							stack = append(stack, rr)
							advanced = true
							break
						}
					}
				}
				if !advanced {
					post = append(post, r)
					stack = stack[:len(stack)-1]
				}
			}
		}
		// Numeric phase: scatter, then apply L columns in topological order.
		for t, r := range colIdx[j] {
			w[r] += colVal[j][t]
		}
		for i := len(post) - 1; i >= 0; i-- {
			r := post[i]
			t := rowPos[r]
			if t < 0 {
				continue
			}
			piv := w[r]
			if piv == 0 {
				continue
			}
			for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
				w[f.lrow[e]] -= f.lval[e] * piv
			}
		}
		// Threshold partial pivoting over not-yet-pivotal rows of the
		// pattern: eligible within threshRel of the largest magnitude,
		// sparsest static row count wins (deterministic tie-break on the
		// DFS pattern order).
		maxAbs := 0.0
		for _, r := range post {
			if rowPos[r] < 0 {
				if a := math.Abs(w[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < singTol {
			// Clear the scatter state so the workspace stays reusable.
			for _, r := range post {
				w[r] = 0
				visited[r] = false
			}
			ws.post, ws.stack = post[:0], stack[:0]
			return ErrSingular
		}
		thresh := threshRel * maxAbs
		pr := int32(-1)
		for _, r := range post {
			if rowPos[r] >= 0 || math.Abs(w[r]) < thresh {
				continue
			}
			if pr == -1 || rcount[r] < rcount[pr] {
				pr = r
			}
		}
		piv := w[pr]
		// Emit the column: U entries at already-pivotal rows, L multipliers
		// below, clearing the accumulator and visit marks as we go.
		for _, r := range post {
			v := w[r]
			w[r] = 0
			visited[r] = false
			if v == 0 {
				continue
			}
			switch {
			case rowPos[r] >= 0:
				if math.Abs(v) > dropTol {
					f.urow = append(f.urow, rowPos[r])
					f.uval = append(f.uval, v)
				}
			case r != pr:
				if lv := v / piv; math.Abs(lv) > dropTol {
					f.lrow = append(f.lrow, int32(r))
					f.lval = append(f.lval, lv)
				}
			}
		}
		f.udiag[k] = piv
		f.rowPiv[k] = pr
		rowPos[pr] = int32(k)
		f.lptr[k+1] = int32(len(f.lrow))
		f.uptr[k+1] = int32(len(f.urow))
	}
	ws.post, ws.stack = post[:0], stack[:0]
	f.buildMirrors(ws)
	return nil
}

// buildMirrors derives the transposed (row-major) views of L and U consumed
// by the hyper-sparse Btran. U is mirrored by row step (urow entries are step
// numbers); L is mirrored by the step at which each entry's row becomes
// pivotal, which is exactly the order the backward Lᵀ scatter finalizes them.
func (f *Factors) buildMirrors(ws *Workspace) {
	m := f.m
	f.urptr = growI32(f.urptr, m+1)
	f.lrptr = growI32(f.lrptr, m+1)
	f.urcol = growI32(f.urcol, len(f.urow))
	f.urval = growF64(f.urval, len(f.uval))
	f.lrcol = growI32(f.lrcol, len(f.lrow))
	f.lrval = growF64(f.lrval, len(f.lval))
	f.rowStep = growI32(f.rowStep, m)
	f.posStep = growI32(f.posStep, m)
	if m == 0 {
		f.urptr[0], f.lrptr[0] = 0, 0
		return
	}
	for k := 0; k < m; k++ {
		f.rowStep[f.rowPiv[k]] = int32(k)
		f.posStep[f.order[k]] = int32(k)
	}
	if ws == nil || cap(ws.cnt) < m+1 {
		ws = &Workspace{cnt: make([]int32, m+1)}
	}
	cnt := ws.cnt[:m+1]

	// U mirror: count entries per row step, then scatter (k ascending keeps
	// each row's column list sorted ascending — deterministic).
	for i := range cnt {
		cnt[i] = 0
	}
	for _, j := range f.urow {
		cnt[j+1]++
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	copy(f.urptr, cnt[:m+1])
	for k := 0; k < m; k++ {
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			j := f.urow[e]
			f.urcol[cnt[j]] = int32(k)
			f.urval[cnt[j]] = f.uval[e]
			cnt[j]++
		}
	}

	// L mirror: entries keyed by the step at which their row becomes
	// pivotal.
	for i := range cnt {
		cnt[i] = 0
	}
	steps := f.rowStep
	for _, r := range f.lrow {
		cnt[steps[r]+1]++
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	copy(f.lrptr, cnt[:m+1])
	for k := 0; k < m; k++ {
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			s := steps[f.lrow[e]]
			f.lrcol[cnt[s]] = int32(k)
			f.lrval[cnt[s]] = f.lval[e]
			cnt[s]++
		}
	}
}

// M returns the dimension of the factorized basis.
func (f *Factors) M() int { return f.m }

// NumEtas reports the number of eta updates applied since factorization.
func (f *Factors) NumEtas() int { return len(f.etas) }

// EtaNNZ reports the total number of stored eta entries; the refactorization
// policy uses it to bound update-file growth on dense pivot columns.
//
//hot:path
func (f *Factors) EtaNNZ() int { return f.etaNNZ }

// Update appends the product-form eta for a pivot that replaced the basis
// column at position r, where alpha = B⁻¹·(entering column) is the FTRAN'd
// entering column and nz lists, in ascending order, the positions of alpha
// that may hold a value other than +0 (the pattern FtranNZ returns; all m
// positions after a dense solve). alpha[r] must be nonzero (the simplex
// ratio test guarantees a pivot magnitude above its tolerance).
// Steady-state updates are allocation-free once the arena capacity has
// warmed up.
//
//hot:path
func (f *Factors) Update(alpha []float64, nz []int32, r int) {
	off := int32(len(f.etaIdx))
	for _, i := range nz {
		if v := alpha[i]; int(i) != r && math.Abs(v) > dropTol {
			f.etaIdx = append(f.etaIdx, i) //lint:allow hotalloc -- amortized eta-arena growth; compacted at refactorization
			f.etaVal = append(f.etaVal, v)
		}
	}
	n := int32(len(f.etaIdx)) - off
	f.etas = append(f.etas, eta{r: int32(r), n: n, off: off, piv: alpha[r]}) //lint:allow hotalloc -- amortized eta-file growth; compacted at refactorization
	f.etaNNZ += int(n) + 1
}

// Ftran solves B·x = v in place: on input v is a right-hand side indexed by
// row, on output it holds x indexed by basis position. The L and U solves
// run in scatter form over all m elimination steps, skipping steps whose
// value is zero; FtranNZ is the hyper-sparse form that visits only the
// steps a sparse right-hand side reaches.
//
//hot:path
func (f *Factors) Ftran(v []float64) {
	f.ftranLDense(v, 0)
	f.ftranUDense(v, f.m-1)
	f.ftranPermute(v)
	f.ftranEtas(v, nil)
}

// Btran solves Bᵀ·y = v in place: on input v is indexed by basis position
// (e.g. basic costs), on output it holds y indexed by row. After the eta
// transposes, both triangular solves run in scatter form over the
// transposed mirrors, skipping steps whose value is zero; BtranNZ is the
// hyper-sparse form.
//
//hot:path
func (f *Factors) Btran(v []float64) {
	f.btranEtas(v)
	z := f.scratch
	for k := 0; k < f.m; k++ {
		z[k] = v[f.order[k]]
	}
	f.btranDense(v, z, 0)
}

// CopyInto deep-copies f into dst, reusing dst's storage when capacity
// allows. dst afterwards shares nothing with f: either side may be updated,
// refactorized into, or discarded without affecting the other. This is the
// allocation-free warm-start adoption path.
func (f *Factors) CopyInto(dst *Factors) {
	dst.m = f.m
	dst.order = append(growI32(dst.order, len(f.order))[:0], f.order...)
	dst.rowPiv = append(growI32(dst.rowPiv, len(f.rowPiv))[:0], f.rowPiv...)
	dst.lptr = append(growI32(dst.lptr, len(f.lptr))[:0], f.lptr...)
	dst.lrow = append(growI32(dst.lrow, len(f.lrow))[:0], f.lrow...)
	dst.lval = append(growF64(dst.lval, len(f.lval))[:0], f.lval...)
	dst.uptr = append(growI32(dst.uptr, len(f.uptr))[:0], f.uptr...)
	dst.urow = append(growI32(dst.urow, len(f.urow))[:0], f.urow...)
	dst.uval = append(growF64(dst.uval, len(f.uval))[:0], f.uval...)
	dst.udiag = append(growF64(dst.udiag, len(f.udiag))[:0], f.udiag...)
	dst.urptr = append(growI32(dst.urptr, len(f.urptr))[:0], f.urptr...)
	dst.urcol = append(growI32(dst.urcol, len(f.urcol))[:0], f.urcol...)
	dst.urval = append(growF64(dst.urval, len(f.urval))[:0], f.urval...)
	dst.lrptr = append(growI32(dst.lrptr, len(f.lrptr))[:0], f.lrptr...)
	dst.lrcol = append(growI32(dst.lrcol, len(f.lrcol))[:0], f.lrcol...)
	dst.lrval = append(growF64(dst.lrval, len(f.lrval))[:0], f.lrval...)
	dst.rowStep = append(growI32(dst.rowStep, len(f.rowStep))[:0], f.rowStep...)
	dst.posStep = append(growI32(dst.posStep, len(f.posStep))[:0], f.posStep...)
	if cap(dst.etas) < len(f.etas) {
		dst.etas = make([]eta, len(f.etas))
	} else {
		dst.etas = dst.etas[:len(f.etas)]
	}
	copy(dst.etas, f.etas)
	dst.etaIdx = append(growI32(dst.etaIdx, len(f.etaIdx))[:0], f.etaIdx...)
	dst.etaVal = append(growF64(dst.etaVal, len(f.etaVal))[:0], f.etaVal...)
	dst.etaNNZ = f.etaNNZ
	dst.scratch = growF64(dst.scratch, f.m)
}

// Clone returns an independent deep copy of f. Hot callers should hold a
// destination and use CopyInto instead.
func (f *Factors) Clone() *Factors {
	out := &Factors{}
	f.CopyInto(out)
	return out
}
