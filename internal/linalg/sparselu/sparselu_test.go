package sparselu

import (
	"math"
	"math/rand"
	"testing"
)

// randBasis builds a random sparse nonsingular m×m basis in column form
// (diagonal entries force nonsingularity, off-diagonal density ~den).
func randBasis(rng *rand.Rand, m int, den float64) ([][]int32, [][]float64) {
	colIdx := make([][]int32, m)
	colVal := make([][]float64, m)
	for p := 0; p < m; p++ {
		for r := 0; r < m; r++ {
			switch {
			case r == p:
				colIdx[p] = append(colIdx[p], int32(r))
				colVal[p] = append(colVal[p], 2+rng.Float64())
			case rng.Float64() < den:
				colIdx[p] = append(colIdx[p], int32(r))
				colVal[p] = append(colVal[p], rng.NormFloat64())
			}
		}
	}
	return colIdx, colVal
}

// toDense expands a column-form basis into a dense row-major matrix.
func toDense(m int, colIdx [][]int32, colVal [][]float64) [][]float64 {
	d := make([][]float64, m)
	for i := range d {
		d[i] = make([]float64, m)
	}
	for p := 0; p < m; p++ {
		for k, r := range colIdx[p] {
			d[r][p] = colVal[p][k]
		}
	}
	return d
}

// denseSolve is the test oracle: it solves a·x = b by Gaussian elimination
// with partial pivoting, overwriting a, and returns x.
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(a)
	x := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		x[k], x[p] = x[p], x[k]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= a[i][j] * x[j]
		}
		x[i] /= a[i][i]
	}
	return x
}

// densePattern is the pattern of a dense vector of length m: 0..m-1.
func densePattern(m int) []int32 { return allPositions(make([]int32, m), m) }

func maxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestFtranBtranAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(40)
		colIdx, colVal := randBasis(rng, m, 0.15)
		f, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// FTRAN: B·x = b.
		b := make([]float64, m)
		for i := range b {
			if rng.Float64() < 0.5 {
				b[i] = rng.NormFloat64()
			}
		}
		x := append([]float64(nil), b...)
		f.Ftran(x)
		want := denseSolve(toDense(m, colIdx, colVal), b)
		if d := maxDiff(x, want); d > 1e-9 {
			t.Fatalf("trial %d: ftran differs from dense by %v", trial, d)
		}
		// BTRAN: Bᵀ·y = c ⇔ B·x = c on the transposed matrix.
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		y := append([]float64(nil), c...)
		f.Btran(y)
		// Verify Bᵀ·y = c directly.
		chk := make([]float64, m)
		for p := 0; p < m; p++ {
			s := 0.0
			for k, r := range colIdx[p] {
				s += colVal[p][k] * y[r]
			}
			chk[p] = s
		}
		if d := maxDiff(chk, c); d > 1e-8 {
			t.Fatalf("trial %d: btran residual %v", trial, d)
		}
	}
}

func TestSingular(t *testing.T) {
	// Column 1 is empty → structurally singular.
	colIdx := [][]int32{{0}, nil}
	colVal := [][]float64{{1}, nil}
	if _, err := Factorize(2, colIdx, colVal); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Two identical columns → numerically singular.
	colIdx = [][]int32{{0, 1}, {0, 1}}
	colVal = [][]float64{{1, 2}, {1, 2}}
	if _, err := Factorize(2, colIdx, colVal); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestEmpty(t *testing.T) {
	f, err := Factorize(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Ftran(nil)
	f.Btran(nil)
}

func TestEtaUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(30)
		colIdx, colVal := randBasis(rng, m, 0.2)
		f, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Apply a handful of column replacements via eta updates, mirroring
		// them in the explicit column form.
		for rep := 0; rep < 5; rep++ {
			// Random replacement column (dense-ish so pivots stay safe).
			newIdx := []int32{}
			newVal := []float64{}
			for r := 0; r < m; r++ {
				v := rng.NormFloat64()
				if r == rep%m {
					v += 3 // keep the pivot position well-conditioned
				}
				if v != 0 {
					newIdx = append(newIdx, int32(r))
					newVal = append(newVal, v)
				}
			}
			// alpha = B⁻¹·a via the current factors.
			alpha := make([]float64, m)
			for k, r := range newIdx {
				alpha[r] = newVal[k]
			}
			f.Ftran(alpha)
			pos := rep % m
			if math.Abs(alpha[pos]) < 1e-6 {
				continue // unlucky pivot; skip this replacement
			}
			f.Update(alpha, densePattern(m), pos)
			colIdx[pos], colVal[pos] = newIdx, newVal
		}
		// The eta-updated factors must agree with a fresh factorization of
		// the current basis.
		fresh, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d refactorize: %v", trial, err)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1 := append([]float64(nil), b...)
		x2 := append([]float64(nil), b...)
		f.Ftran(x1)
		fresh.Ftran(x2)
		if d := maxDiff(x1, x2); d > 1e-6 {
			t.Fatalf("trial %d: eta ftran differs from refactorized by %v (etas=%d)", trial, d, f.NumEtas())
		}
		y1 := append([]float64(nil), b...)
		y2 := append([]float64(nil), b...)
		f.Btran(y1)
		fresh.Btran(y2)
		if d := maxDiff(y1, y2); d > 1e-6 {
			t.Fatalf("trial %d: eta btran differs from refactorized by %v", trial, d)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := 12
	colIdx, colVal := randBasis(rng, m, 0.3)
	f, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatal(err)
	}
	alpha := make([]float64, m)
	for i := range alpha {
		alpha[i] = rng.NormFloat64()
	}
	alpha[4] = 2
	f.Update(alpha, densePattern(m), 4)

	clone := f.Clone()
	if clone.NumEtas() != 1 || clone.EtaNNZ() != f.EtaNNZ() {
		t.Fatalf("clone eta state: %d etas, nnz %d", clone.NumEtas(), clone.EtaNNZ())
	}
	// Updating the clone must not leak into the original, and vice versa.
	clone.Update(alpha, densePattern(m), 5)
	f.Update(alpha, densePattern(m), 6)
	if f.NumEtas() != 2 || clone.NumEtas() != 2 {
		t.Fatalf("eta counts after divergent updates: f=%d clone=%d", f.NumEtas(), clone.NumEtas())
	}
	b := make([]float64, m)
	b[0] = 1
	x1 := append([]float64(nil), b...)
	clone.Ftran(x1) // must not disturb f's scratch mid-use (separate buffers)
	x2 := append([]float64(nil), b...)
	f.Ftran(x2)
	if f.etas[1].r == clone.etas[1].r {
		t.Fatal("divergent etas alias")
	}
}

func TestDeterministicFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := 25
	colIdx, colVal := randBasis(rng, m, 0.2)
	f1, err1 := Factorize(m, colIdx, colVal)
	f2, err2 := Factorize(m, colIdx, colVal)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	f1.Ftran(x1)
	f2.Ftran(x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("nondeterministic ftran at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}
