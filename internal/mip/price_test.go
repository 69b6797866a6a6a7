package mip

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// colGenProblem builds a randomized capacity-release model with a genuine
// master/pricing split: binary facilities y_j (static, integer) pay an
// opening cost f_j and release capacity u_j on their linking row
// Σ_p a_{jp}·λ_p − u_j·y_j ≤ 0, while continuous pattern columns λ_p earn a
// profit over 1–3 facilities' capacity. The LP relaxation opens facilities
// fractionally to exactly match pattern usage, so branch and bound has to
// work for its optimum — at different y fixings different patterns price in,
// which is what exercises pricing in the tree, not just at the root.
//
// When full is true every pattern is emitted as a static LP column and the
// returned lazy list is empty; otherwise the LP holds only the facilities
// and every pattern comes back as a lazy Column for a Pricer to offer.
func colGenProblem(seed int64, nFac, nPat int, full bool) (*Problem, []Column) {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	caps := make([]float64, nFac)
	for j := 0; j < nFac; j++ {
		caps[j] = 2 + rng.Float64()*6
		p.AddCol(-(1 + rng.Float64()*3), 0, 1, "") // opening cost
	}
	var pats []Column
	for q := 0; q < nPat; q++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var idx []int32
		var val []float64
		for len(idx) < k {
			j := rng.Intn(nFac)
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, int32(j))
			val = append(val, 0.5+rng.Float64()*1.5)
		}
		pats = append(pats, Column{Idx: idx, Val: val, LB: 0,
			UB: 1 + rng.Float64()*3, Obj: 1 + rng.Float64()*4})
	}
	var lazy []Column
	patCol := make([]int32, len(pats))
	for q, c := range pats {
		if full {
			patCol[q] = int32(p.AddCol(c.Obj, c.LB, c.UB, ""))
		} else {
			lazy = append(lazy, c)
		}
	}
	for j := 0; j < nFac; j++ {
		idx := []int32{int32(j)}
		val := []float64{-caps[j]}
		if full {
			for q, c := range pats {
				for t, i := range c.Idx {
					if int(i) == j {
						idx = append(idx, patCol[q])
						val = append(val, c.Val[t])
					}
				}
			}
		}
		p.AddLE(idx, val, 0, "link")
	}
	mp := NewProblem(p)
	for j := 0; j < nFac; j++ {
		mp.SetInteger(j)
	}
	return mp, lazy
}

// patternPricer is the test Pricer: it holds the full formulation's lazy
// pattern columns and returns the ones with improving reduced cost at the
// dual point — a pure function of duals, as the contract requires. Appended
// columns are re-offered freely; the pool's dedup absorbs them.
type patternPricer struct {
	cols     []Column
	minimize bool
}

func (pp *patternPricer) Price(duals, x []float64) []Column {
	var out []Column
	for _, c := range pp.cols {
		d := lp.CandidateReducedCost(c.Obj, c.Idx, c.Val, duals)
		if pp.minimize {
			d = -d
		}
		if d > numtol.PriceRedTol {
			out = append(out, c)
		}
	}
	return out
}

func TestColumnPoolDedupSelectEvict(t *testing.T) {
	cp := newPool[Column]()
	tol := numtol.PriceRedTol
	// Same column offered three ways (permuted, duplicated entries) must
	// pool exactly once.
	offerColumn(cp, Column{Idx: []int32{0, 1}, Val: []float64{1, 2}, UB: 1, Obj: 5, Name: "a"}, 4)
	offerColumn(cp, Column{Idx: []int32{1, 0}, Val: []float64{2, 1}, UB: 1, Obj: 5, Name: "a-permuted"}, 4)
	offerColumn(cp, Column{Idx: []int32{0, 1, 1}, Val: []float64{1, 3, -1}, UB: 1, Obj: 5, Name: "a-split"}, 4)
	if len(cp.entries) != 1 || cp.hits != 2 || cp.offered != 3 {
		t.Fatalf("dedup: %d entries, %d hits, %d offered", len(cp.entries), cp.hits, cp.offered)
	}
	// A zero-sum column canonicalizes to nothing and is dropped.
	offerColumn(cp, Column{Idx: []int32{2, 2}, Val: []float64{1, -1}, UB: 1, Obj: 1, Name: "empty"}, 4)
	if len(cp.entries) != 1 {
		t.Fatalf("coefficient-free column was pooled")
	}
	// Same coefficients but different objective = a different variable.
	offerColumn(cp, Column{Idx: []int32{0, 1}, Val: []float64{1, 2}, UB: 1, Obj: 7, Name: "b"}, 4)
	// A column that does not price in at the test duals is pooled but never
	// selected.
	offerColumn(cp, Column{Idx: []int32{3}, Val: []float64{10}, UB: 1, Obj: 1, Name: "dull"}, 4)
	if len(cp.entries) != 3 {
		t.Fatalf("pool size %d, want 3", len(cp.entries))
	}

	// Maximization sense: reduced cost obj − yᵀa; duals zero on rows 0,1 and
	// large on row 3 → "b" (7) beats "a" (5), "dull" prices out.
	duals := []float64{0, 0, 0, 5}
	sel := cp.best(improvementAt(duals, false), tol, tol, 10)
	if len(sel) != 2 || sel[0].item.Name != "b" || sel[1].item.Name != "a" {
		t.Fatalf("selection order wrong: %d selected", len(sel))
	}
	if got := cp.best(improvementAt(duals, false), tol, tol, 1); len(got) != 1 || got[0].item.Name != "b" {
		t.Fatalf("batch limit not honored")
	}
	sel[0].added = true
	if got := cp.best(improvementAt(duals, false), tol, tol, 10); len(got) != 1 || got[0].item.Name != "a" {
		t.Fatalf("added column re-selected")
	}
	// Minimization sense flips the test: obj 5 now needs yᵀa > 5 to improve.
	if got := cp.best(improvementAt(duals, true), tol, tol, 10); len(got) != 1 || got[0].item.Name != "dull" {
		t.Fatalf("minimize-sense selection wrong")
	}

	// Aging: mark "a" added too, then run rounds where only "dull" keeps
	// pricing in (minimize sense); under maximize duals it never improves,
	// so age it out with maximize selections.
	sel = cp.best(improvementAt(duals, false), tol, tol, 10)
	sel[0].added = true // "a"
	for r := 0; r < poolMaxAge+1; r++ {
		cp.best(improvementAt(duals, false), tol, tol, 10)
		cp.endRound()
	}
	names := map[string]bool{}
	for _, e := range cp.entries {
		names[e.item.Name] = true
	}
	if names["dull"] || !names["a"] || !names["b"] || cp.evicted != 1 {
		t.Fatalf("eviction wrong: entries %v, evicted %d", names, cp.evicted)
	}
	// An evicted column may be offered (and therefore appended) again.
	offerColumn(cp, Column{Idx: []int32{3}, Val: []float64{10}, UB: 1, Obj: 1, Name: "dull"}, 4)
	if len(cp.entries) != 3 {
		t.Fatalf("re-offer after eviction did not pool")
	}
}

func TestColumnPoolRejectsOutOfRange(t *testing.T) {
	cp := newPool[Column]()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column row did not panic")
		}
	}()
	offerColumn(cp, Column{Idx: []int32{5}, Val: []float64{1}, UB: 1, Obj: 1, Name: "bad"}, 2)
}

// TestPricingMatchesStaticSolve is the correctness anchor: solving the
// restricted master with a Pricer must reach exactly the optimum of the full
// statically built formulation, because pricing to convergence closes the
// restricted relaxation at every node. Checked across shapes and both
// optimization senses.
func TestPricingMatchesStaticSolve(t *testing.T) {
	shapes := []struct {
		seed       int64
		nFac, nPat int
	}{
		{3, 4, 12}, {7, 5, 20}, {11, 6, 30}, {19, 3, 8}, {23, 8, 40},
	}
	sawTreeCols := false
	for _, sh := range shapes {
		full, _ := colGenProblem(sh.seed, sh.nFac, sh.nPat, true)
		restricted, lazy := colGenProblem(sh.seed, sh.nFac, sh.nPat, false)
		want := Solve(context.Background(), full, nil)
		if want.Status != StatusOptimal {
			t.Fatalf("seed %d: full status %v", sh.seed, want.Status)
		}
		got := Solve(context.Background(), restricted, &Options{
			Pricers: []Pricer{&patternPricer{cols: lazy}},
		})
		if got.Status != StatusOptimal {
			t.Fatalf("seed %d: priced status %v", sh.seed, got.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: priced obj %v differs from static %v", sh.seed, got.Obj, want.Obj)
		}
		if got.Columns.ColsAtRoot != restricted.LP.NumCols() {
			t.Errorf("seed %d: ColsAtRoot %d, want %d", sh.seed, got.Columns.ColsAtRoot, restricted.LP.NumCols())
		}
		if got.Columns.PricedCols != len(got.AppliedColumns) {
			t.Errorf("seed %d: PricedCols %d != len(AppliedColumns) %d",
				sh.seed, got.Columns.PricedCols, len(got.AppliedColumns))
		}
		if got.Columns.PricedCols == 0 {
			t.Errorf("seed %d: no column priced in; the shape no longer exercises pricing", sh.seed)
		}
		if got.Columns.Rounds > 1 {
			sawTreeCols = true
		}
		// Validity half of the Pricer contract, end to end: every appended
		// column must be one of the full formulation's pattern columns.
		known := map[string]bool{}
		for _, c := range lazy {
			if idx, val := canonical(c.Idx, c.Val); len(idx) > 0 {
				known[vecKey(idx, val, c.LB, c.UB, c.Obj)] = true
			}
		}
		for _, c := range got.AppliedColumns {
			if !known[vecKey(c.Idx, c.Val, c.LB, c.UB, c.Obj)] {
				t.Errorf("seed %d: applied column %q is not a formulation column", sh.seed, c.Name)
			}
		}
	}
	if !sawTreeCols {
		t.Error("no shape needed more than one pricing round; the cases are too easy")
	}
}

// singlePricer offers one new column per call: the first of the lazy
// pattern columns that improves at the dual point and that it has not
// offered before. An offered column improves by the pool's own score, so
// the pool appends it in the same round; "not offered before" therefore
// means "not in the LP yet", and the pricer returns nothing only once no
// column the LP lacks prices in. Returning just the first improving column
// instead would stall: that column can already sit in the LP at its upper
// bound, so the pool appends nothing and pricing stops early.
type singlePricer struct {
	cols    []Column
	offered []bool
}

func (sp *singlePricer) Price(duals, x []float64) []Column {
	score := improvementAt(duals, false) // colGenProblem maximizes
	for q, c := range sp.cols {
		if !sp.offered[q] && score(c) > numtol.PriceRedTol {
			sp.offered[q] = true
			return []Column{c}
		}
	}
	return nil
}

// TestPricingSmallBatchConverges forces many rounds through a pricer that
// offers one new column per call and still must land on the same optimum,
// with one round per appended column.
func TestPricingSmallBatchConverges(t *testing.T) {
	full, _ := colGenProblem(7, 5, 20, true)
	restricted, lazy := colGenProblem(7, 5, 20, false)
	want := Solve(context.Background(), full, nil)
	got := Solve(context.Background(), restricted, &Options{
		Pricers: []Pricer{&singlePricer{cols: lazy, offered: make([]bool, len(lazy))}},
	})
	if got.Status != StatusOptimal {
		t.Fatalf("status %v", got.Status)
	}
	if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
		t.Errorf("obj %v differs from static %v", got.Obj, want.Obj)
	}
	if got.Columns.Rounds != got.Columns.PricedCols {
		t.Errorf("single-column pricer appended %d columns in %d rounds", got.Columns.PricedCols, got.Columns.Rounds)
	}
	if got.Columns.Rounds < 2 {
		t.Errorf("only %d pricing rounds; the case no longer forces many rounds", got.Columns.Rounds)
	}
}

// TestParallelDeterminismWithPricing extends the bit-identical guarantee to
// column generation, alone and interleaved with lazy cuts: pricing runs only
// on the committer and workers replay the committed op log in order, so the
// committed result, the column trajectory and the cut trajectory must all be
// independent of the worker count.
func TestParallelDeterminismWithPricing(t *testing.T) {
	shapes := []struct {
		name       string
		seed       int64
		nFac, nPat int
		withCuts   bool
	}{
		{"pricing", 7, 5, 20, false},
		{"pricing-wide", 23, 8, 40, false},
		{"pricing+cuts", 11, 6, 30, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var base Result
			for _, w := range []int{1, 2, 4, 8} {
				prob, lazy := colGenProblem(sh.seed, sh.nFac, sh.nPat, false)
				o := &Options{
					Workers: w,
					Pricers: []Pricer{&patternPricer{cols: lazy}},
				}
				if sh.withCuts {
					o.Separators = []Separator{&coverSeparator{prob: prob}}
				}
				res := Solve(context.Background(), prob, o)
				if res.Status != StatusOptimal {
					t.Fatalf("workers=%d: status %v", w, res.Status)
				}
				if w == 1 {
					base = res
					continue
				}
				assertBitIdentical(t, sh.name, base, res, 1, w)
				if res.Columns != base.Columns {
					t.Errorf("column stats differ between 1 and %d workers: %+v vs %+v", w, base.Columns, res.Columns)
				}
				if !colsEqual(res.AppliedColumns, base.AppliedColumns) {
					t.Errorf("applied columns differ between 1 and %d workers", w)
				}
				if res.Cuts != base.Cuts {
					t.Errorf("cut stats differ between 1 and %d workers", w)
				}
				if !reflect.DeepEqual(res.AppliedCuts, base.AppliedCuts) {
					t.Errorf("applied cuts differ between 1 and %d workers", w)
				}
			}
		})
	}
}

// colsEqual compares applied-column lists entry by entry on the exact key.
func colsEqual(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		ka := vecKey(a[k].Idx, a[k].Val, a[k].LB, a[k].UB, a[k].Obj)
		kb := vecKey(b[k].Idx, b[k].Val, b[k].LB, b[k].UB, b[k].Obj)
		if ka != kb {
			return false
		}
	}
	return true
}
