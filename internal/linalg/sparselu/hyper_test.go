package sparselu

import (
	"math"
	"math/rand"
	"testing"
)

// sparseCase builds a random factorization the way the simplex produces
// them: a sparse basis, then any of a few sparse eta updates, a bordered row
// extension (ExtendInto), a bordered column extension (ExtendColumnInto)
// and a copy into a reused destination (CopyInto). The updates go through
// Update with FtranNZ's pattern on the returned factors and with the dense
// pattern on a twin; the two eta files must match exactly.
func sparseCase(t *testing.T, rng *rand.Rand, maxM int) *Factors {
	t.Helper()
	m := 1 + rng.Intn(maxM)
	colIdx, colVal := randBasis(rng, m, 1.5/float64(m))
	ws := NewWorkspace()
	f := &Factors{}
	if err := FactorizeInto(f, ws, m, colIdx, colVal); err != nil {
		t.Fatalf("factorize m=%d: %v", m, err)
	}
	twin := f.Clone()
	nz := make([]int32, m)
	for rep := rng.Intn(4); rep > 0; rep-- {
		pos := rng.Intn(m)
		a := make([]float64, m)
		idx := []int32{int32(pos)}
		a[pos] = 3 + rng.Float64()
		if rng.Intn(2) == 0 {
			a[pos] = -a[pos] // negative eta pivots turn +0 into -0 in Btran
		}
		for e := rng.Intn(3); e > 0; e-- {
			r := int32(rng.Intn(m))
			a[r] += rng.NormFloat64()
			idx = append(idx, r)
		}
		b := append([]float64(nil), a...)
		pat, _ := f.FtranNZ(a, idx, nz, ws)
		twin.Ftran(b)
		requireSame(t, "update column", a, b)
		if math.Abs(a[pos]) < 1e-6 {
			continue
		}
		f.Update(a, pat, pos)
		twin.Update(b, densePattern(m), pos)
		if len(f.etaIdx) != len(twin.etaIdx) || f.etas[len(f.etas)-1] != twin.etas[len(twin.etas)-1] {
			t.Fatalf("sparse-pattern eta differs from the dense-pattern eta")
		}
		for i := range f.etaIdx {
			if f.etaIdx[i] != twin.etaIdx[i] || math.Float64bits(f.etaVal[i]) != math.Float64bits(twin.etaVal[i]) {
				t.Fatalf("sparse-pattern eta entry %d differs from the dense-pattern eta", i)
			}
		}
	}
	switch rng.Intn(4) {
	case 1:
		k := 1 + rng.Intn(3)
		bIdx, bVal, diag := randBorder(rng, m, k)
		for i := range bIdx {
			if len(bIdx[i]) > 2 {
				bIdx[i], bVal[i] = bIdx[i][:2], bVal[i][:2]
			}
		}
		g := &Factors{}
		if err := f.ExtendInto(g, ws, k, bIdx, bVal, diag); err != nil {
			t.Fatalf("extend: %v", err)
		}
		f = g
	case 2:
		k := 1 + rng.Intn(3)
		bIdx, bVal, diag := randColBorder(rng, m, k)
		g := &Factors{}
		if err := f.ExtendColumnInto(g, ws, k, bIdx, bVal, diag); err != nil {
			t.Fatalf("extend column: %v", err)
		}
		f = g
	case 3:
		// A destination with stale, larger storage.
		big := 2 * m
		bi, bv := randBasis(rng, big, 1.5/float64(big))
		dst, err := Factorize(big, bi, bv)
		if err != nil {
			t.Fatalf("factorize: %v", err)
		}
		f.CopyInto(dst)
		f = dst
	}
	return f
}

// requireSame fails unless a and b agree bit for bit.
func requireSame(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d = %v (bits %x), dense gives %v (bits %x)",
				what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// requirePattern fails unless pat is strictly ascending and lists every
// entry of v that is not +0.
func requirePattern(t *testing.T, what string, v []float64, pat []int32) {
	t.Helper()
	in := make([]bool, len(v))
	for i, p := range pat {
		if i > 0 && pat[i-1] >= p {
			t.Fatalf("%s: pattern not strictly ascending at %d: %v", what, i, pat)
		}
		in[p] = true
	}
	for i, x := range v {
		if math.Float64bits(x) != 0 && !in[i] {
			t.Fatalf("%s: entry %d = %v missing from the pattern", what, i, x)
		}
	}
}

// requireClean fails unless the workspace's solve scratch is all zero.
func requireClean(t *testing.T, what string, ws *Workspace) {
	t.Helper()
	for i, w := range ws.mark {
		if w != 0 {
			t.Fatalf("%s: mark word %d left set", what, i)
		}
	}
	for i, z := range ws.acc {
		if math.Float64bits(z) != 0 {
			t.Fatalf("%s: accumulator entry %d left at %v", what, i, z)
		}
	}
}

// sparseRHS draws a right-hand side with a few entries, some of them -0 or
// +0, and returns it with its (possibly repeating) pattern.
func sparseRHS(rng *rand.Rand, m int) ([]float64, []int32) {
	v := make([]float64, m)
	var nz []int32
	for e := 1 + rng.Intn(4); e > 0; e-- {
		i := int32(rng.Intn(m))
		switch rng.Intn(5) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
			v[i] = 0
		default:
			v[i] = rng.NormFloat64()
		}
		nz = append(nz, i)
	}
	return v, nz
}

// checkSparseSolves compares FtranNZ and BtranNZ with Ftran and Btran on a
// few sparse right-hand sides, under the production dense switch, with the
// switch disabled, and with a random switch point that exercises every
// sparse-to-dense hand-over.
func checkSparseSolves(t *testing.T, rng *rand.Rand, f *Factors) {
	t.Helper()
	m := f.M()
	ws := NewWorkspace()
	out := make([]int32, m)
	for trial := 0; trial < 6; trial++ {
		for _, limit := range []int{m / denseDiv, m, rng.Intn(m + 1)} {
			v, nz := sparseRHS(rng, m)
			want := append([]float64(nil), v...)
			f.Ftran(want)
			pat, _ := f.ftranNZ(v, nz, out, ws, limit)
			requireSame(t, "FtranNZ", v, want)
			requirePattern(t, "FtranNZ", v, pat)
			requireClean(t, "FtranNZ", ws)

			v, nz = sparseRHS(rng, m)
			want = append([]float64(nil), v...)
			f.Btran(want)
			// nz aliases out, as a caller reusing one buffer does.
			buf := append(out[:0], nz...)
			pat, _ = f.btranNZ(v, buf, out[:m], ws, limit)
			requireSame(t, "BtranNZ", v, want)
			requirePattern(t, "BtranNZ", v, pat)
			requireClean(t, "BtranNZ", ws)
		}
	}
}

// TestSparseSolvesMatchDense is the randomized differential test of the
// hyper-sparse solves against the dense loops.
func TestSparseSolvesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		checkSparseSolves(t, rng, sparseCase(t, rng, 150))
	}
}

// TestSparseSolvesAllocFree extends the kernel allocation contract to the
// hyper-sparse solves once their workspace has been sized, and guards the
// differential test against vacuity: unit right-hand sides on a large, very
// sparse basis must stay under the dense switch.
func TestSparseSolvesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m = 400
	colIdx, colVal := randBasis(rng, m, 0.5/m)
	f, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	ws := NewWorkspace()
	out := make([]int32, m)
	v := make([]float64, m)
	nz := []int32{7}
	ftranSparse, btranSparse := true, true
	run := func() {
		for i := range v {
			v[i] = 0
		}
		v[7] = 1
		_, sparse := f.FtranNZ(v, nz, out, ws)
		ftranSparse = ftranSparse && sparse
		for i := range v {
			v[i] = 0
		}
		v[7] = 1
		_, sparse = f.BtranNZ(v, nz, out, ws)
		btranSparse = btranSparse && sparse
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("FtranNZ+BtranNZ allocate %v per call, want 0", allocs)
	}
	if !ftranSparse || !btranSparse {
		t.Fatalf("unit right-hand sides went dense (FtranNZ sparse %v, BtranNZ sparse %v)", ftranSparse, btranSparse)
	}
}

// FuzzSparseSolves drives the differential check from fuzzer-chosen seeds:
// random sparse bases, eta updates, row and column extensions and copies,
// and sparse right-hand sides with signed zeros.
func FuzzSparseSolves(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkSparseSolves(t, rng, sparseCase(t, rng, 120))
	})
}
