package mip

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tvnep/internal/numtol"
)

// coverSeparator is the test Separator: for every finite ≤-capacity row with
// positive coefficients over integer 0/1 columns it greedily builds a cover
// S (columns in decreasing fractional value until the weights exceed the
// capacity) and returns the cover inequality Σ_{j∈S} x_j ≤ |S|−1. The cut is
// globally valid — all coefficients are positive, so setting every column of
// S to 1 would exceed the capacity — and the construction is a pure function
// of x with an index tie-break, as the Separator contract requires.
type coverSeparator struct {
	prob *Problem
}

func (cs *coverSeparator) Separate(x []float64) []Cut {
	const eps = 1e-9
	var cuts []Cut
	p := cs.prob.LP
	for i := 0; i < p.NumRows(); i++ {
		ub := p.RowUB[i]
		if math.IsInf(ub, 1) || !math.IsInf(p.RowLB[i], -1) {
			continue
		}
		idx, val := p.Row(i)
		usable := len(idx) > 0
		for k, j := range idx {
			if val[k] <= 0 || !cs.prob.Integer[j] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		ord := make([]int, len(idx))
		for k := range ord {
			ord[k] = k
		}
		sort.Slice(ord, func(a, b int) bool {
			xa, xb := x[idx[ord[a]]], x[idx[ord[b]]]
			if xa != xb {
				return xa > xb
			}
			return idx[ord[a]] < idx[ord[b]]
		})
		w, lhs := 0.0, 0.0
		var cover []int32
		for _, k := range ord {
			w += val[k]
			lhs += x[idx[k]]
			cover = append(cover, idx[k])
			if w > ub+eps {
				break
			}
		}
		if w <= ub+eps || len(cover) < 2 {
			continue // the whole row fits: no cover exists
		}
		if lhs <= float64(len(cover)-1)+eps {
			continue // cover found but not violated at x
		}
		ones := make([]float64, len(cover))
		for k := range ones {
			ones[k] = 1
		}
		cuts = append(cuts, Cut{
			Idx: cover, Val: ones,
			LB: math.Inf(-1), UB: float64(len(cover) - 1),
			Name: fmt.Sprintf("cover[%d]", i),
		})
	}
	return cuts
}

func TestCutPoolDedupSelectEvict(t *testing.T) {
	cp := newPool[Cut]()
	x := []float64{1, 1, 0, 0}
	inf := math.Inf(-1)

	// Same row offered three ways (permuted, duplicated entries) must pool
	// exactly once.
	offerCut(cp, Cut{Idx: []int32{0, 1}, Val: []float64{1, 1}, LB: inf, UB: 1, Name: "a"}, 4)
	offerCut(cp, Cut{Idx: []int32{1, 0}, Val: []float64{1, 1}, LB: inf, UB: 1, Name: "a-permuted"}, 4)
	offerCut(cp, Cut{Idx: []int32{0, 1, 1}, Val: []float64{1, 2, -1}, LB: inf, UB: 1, Name: "a-split"}, 4)
	if len(cp.entries) != 1 || cp.hits != 2 || cp.offered != 3 {
		t.Fatalf("dedup: %d entries, %d hits, %d offered", len(cp.entries), cp.hits, cp.offered)
	}
	// A zero-sum row canonicalizes to nothing and is dropped.
	offerCut(cp, Cut{Idx: []int32{2, 2}, Val: []float64{1, -1}, LB: inf, UB: 0, Name: "empty"}, 4)
	if len(cp.entries) != 1 {
		t.Fatalf("empty row was pooled")
	}
	// A satisfied row is pooled but never selected.
	offerCut(cp, Cut{Idx: []int32{2}, Val: []float64{1}, LB: inf, UB: 5, Name: "slack"}, 4)
	// A more violated row must sort first.
	offerCut(cp, Cut{Idx: []int32{0}, Val: []float64{3}, LB: inf, UB: 1, Name: "big"}, 4)

	sel := cp.best(violationAt(x), numtol.CutViolTol, numtol.CutViolTol, 10)
	if len(sel) != 2 {
		t.Fatalf("selected %d cuts, want 2", len(sel))
	}
	if sel[0].item.Name != "big" || sel[1].item.Name != "a" {
		t.Fatalf("violation order wrong: %q, %q", sel[0].item.Name, sel[1].item.Name)
	}
	if got := cp.best(violationAt(x), numtol.CutViolTol, numtol.CutViolTol, 1); len(got) != 1 || got[0].item.Name != "big" {
		t.Fatalf("batch limit not honored")
	}
	sel[0].added = true
	if got := cp.best(violationAt(x), numtol.CutViolTol, numtol.CutViolTol, 10); len(got) != 1 || got[0].item.Name != "a" {
		t.Fatalf("added cut re-selected")
	}

	// Aging: the slack row was never violated; after maxAge rounds it must
	// be evicted, while the added one stays (it is an LP row now).
	sel[1].added = true
	for r := 0; r < poolMaxAge+1; r++ {
		cp.endRound()
	}
	names := map[string]bool{}
	for _, e := range cp.entries {
		names[e.item.Name] = true
	}
	if names["slack"] || !names["big"] || !names["a"] || cp.evicted != 1 {
		t.Fatalf("eviction wrong: entries %v, evicted %d", names, cp.evicted)
	}
	// An evicted row may be offered (and therefore appended) again.
	offerCut(cp, Cut{Idx: []int32{2}, Val: []float64{1}, LB: inf, UB: 5, Name: "slack"}, 4)
	if len(cp.entries) != 3 {
		t.Fatalf("re-offer after eviction did not pool")
	}
}

func TestCutPoolRejectsOutOfRange(t *testing.T) {
	cp := newPool[Cut]()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range cut column did not panic")
		}
	}()
	offerCut(cp, Cut{Idx: []int32{5}, Val: []float64{1}, LB: math.Inf(-1), UB: 1, Name: "bad"}, 2)
}

// TestLazyCutsMatchPlainSolve: separation must never change the certified
// optimum — cuts only tighten the relaxation. Checked across knapsack shapes
// that actually trigger cover cuts.
func TestLazyCutsMatchPlainSolve(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-le", randKnapsack(5, 22, 30, false)},
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"multiknapsack", multiKnapsack(3, 30, 10)},
		{"multiknapsack-2", multiKnapsack(17, 24, 6)},
	}
	sawCuts := false
	for _, tc := range cases {
		plain := Solve(context.Background(), tc.prob, nil)
		if plain.Status != StatusOptimal {
			t.Fatalf("%s: plain status %v", tc.name, plain.Status)
		}
		lazy := Solve(context.Background(), tc.prob, &Options{
			Separators: []Separator{&coverSeparator{prob: tc.prob}},
		})
		if lazy.Status != StatusOptimal {
			t.Fatalf("%s: lazy status %v", tc.name, lazy.Status)
		}
		if d := math.Abs(lazy.Obj - plain.Obj); d > 1e-6*(1+math.Abs(plain.Obj)) {
			t.Errorf("%s: lazy obj %v differs from plain %v", tc.name, lazy.Obj, plain.Obj)
		}
		if lazy.Cuts.RowsAtRoot != tc.prob.LP.NumRows() {
			t.Errorf("%s: RowsAtRoot = %d, want %d", tc.name, lazy.Cuts.RowsAtRoot, tc.prob.LP.NumRows())
		}
		if lazy.Cuts.SeparatedRows != len(lazy.AppliedCuts) {
			t.Errorf("%s: SeparatedRows %d != len(AppliedCuts) %d", tc.name, lazy.Cuts.SeparatedRows, len(lazy.AppliedCuts))
		}
		if lazy.Cuts.SeparatedRows > 0 {
			sawCuts = true
			// The incumbent must satisfy every applied cut: that is the
			// validity half of the Separator contract, checked end to end.
			for _, c := range lazy.AppliedCuts {
				if v := rowViolation(c, lazy.X); v > 1e-6 {
					t.Errorf("%s: incumbent violates applied cut %q by %v", tc.name, c.Name, v)
				}
			}
		}
	}
	if !sawCuts {
		t.Fatal("no test case triggered separation; the cases no longer exercise the cut path")
	}
}

// TestParallelDeterminismWithCuts extends the tentpole determinism guarantee
// to lazy separation: with separators registered, the committed result AND
// the full cut trajectory (stats and applied rows) must be bit-identical for
// any worker count, because separation runs only on the committer against
// deterministic fractional points.
func TestParallelDeterminismWithCuts(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"multiknapsack", multiKnapsack(3, 22, 6)},
		{"multiknapsack-deep", multiKnapsack(7, 28, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base Result
			for _, w := range []int{1, 2, 4, 8} {
				res := Solve(context.Background(), tc.prob, &Options{
					Workers:    w,
					Separators: []Separator{&coverSeparator{prob: tc.prob}},
				})
				if res.Status != StatusOptimal {
					t.Fatalf("workers=%d: status %v", w, res.Status)
				}
				if w == 1 {
					base = res
					continue
				}
				assertBitIdentical(t, tc.name, base, res, 1, w)
				if res.Cuts != base.Cuts {
					t.Errorf("cut stats differ between 1 and %d workers: %+v vs %+v", w, base.Cuts, res.Cuts)
				}
				if !reflect.DeepEqual(res.AppliedCuts, base.AppliedCuts) {
					t.Errorf("applied cut rows differ between 1 and %d workers", w)
				}
			}
		})
	}
}
