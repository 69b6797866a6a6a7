package lp

import (
	"math/rand"
	"testing"
)

// TestSteadyStatePivotsAllocFree pins the steady-state allocation contract
// of the simplex hot path: once the solver's persistent scratch is warmed,
// warm re-solves that actually pivot must allocate exactly as much as warm
// re-solves that do not (i.e. only result packaging) — the iterations
// themselves are allocation-free. This is the white-box counterpart of the
// tvnep-bench steady_state_allocs probe.
func TestSteadyStatePivotsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := buildRandomLP(rng, 30, 18)
	checkPivotsAllocFree(t, p)
}

// TestSteadyStateSparsePivotsAllocFree extends the contract to the
// hyper-sparse FTRAN/BTRAN path: on a block-diagonal LP each pivot's solves
// reach one block only, so they stay under the dense switch.
func TestSteadyStateSparsePivotsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := buildBlockLP(rng, 40, 12, 8)
	if sparse := checkPivotsAllocFree(t, p); sparse == 0 {
		t.Fatal("no FTRAN/BTRAN stayed sparse; the probe does not cover the hyper-sparse path")
	}
}

// buildBlockLP stacks independent random LPs (n columns, m rows each, as
// buildRandomLP draws them) along the diagonal.
func buildBlockLP(rng *rand.Rand, blocks, n, m int) *Problem {
	p := NewProblem()
	for b := 0; b < blocks; b++ {
		q, _ := buildRandomLP(rng, n, m)
		off := int32(p.NumCols())
		for j := 0; j < q.NumCols(); j++ {
			p.AddCol(q.Obj[j], q.ColLB[j], q.ColUB[j], "")
		}
		for i := 0; i < q.NumRows(); i++ {
			idx, val := q.Row(i)
			shifted := make([]int32, len(idx))
			for k, j := range idx {
				shifted[k] = j + off
			}
			p.AddRow(shifted, val, q.RowLB[i], q.RowUB[i], "")
		}
	}
	return p
}

// checkPivotsAllocFree runs the allocation probe on p and returns the number
// of hyper-sparse solves the pivoting re-solves took.
func checkPivotsAllocFree(t *testing.T, p *Problem) int {
	t.Helper()
	inst := NewInstance(p)
	first := inst.Solve(&Options{CaptureFactors: true})
	if first.Status != StatusOptimal {
		t.Fatalf("cold solve status %v, want optimal", first.Status)
	}
	wb, wf := first.Basis, first.Factors
	warm := func() Result {
		return inst.Solve(&Options{WarmBasis: wb, WarmFactors: wf})
	}
	warm() // warm the persistent scratch
	base := testing.AllocsPerRun(20, func() { warm() })

	// Perturb a column sitting strictly between its bounds so the warm
	// re-solve has to take dual pivots, then restore.
	perturb := -1
	var plo, phi float64
	for j := range first.X {
		lo, hi := inst.ColBounds(j)
		if x := first.X[j]; x > lo+1e-6 && x < hi-1e-6 {
			perturb, plo, phi = j, lo, hi
			break
		}
	}
	if perturb < 0 {
		t.Skip("no interior column to perturb")
	}
	x := first.X[perturb]
	pivots, sparse := 0, 0
	run := func() {
		inst.SetColBounds(perturb, plo, (plo+x)/2)
		r1 := warm()
		inst.SetColBounds(perturb, plo, phi)
		r2 := warm()
		pivots += r1.Iterations + r2.Iterations
		sparse += r1.SparseSolves + r2.SparseSolves
	}
	run() // grow any scratch the perturbed trajectory needs
	pivots, sparse = 0, 0
	per := testing.AllocsPerRun(20, run)
	t.Logf("%d pivots, %d hyper-sparse solves in the probe runs", pivots, sparse)
	if pivots == 0 {
		t.Fatal("perturbation produced no pivots; the probe is vacuous")
	}
	// run() packages two results, the baseline one.
	if per > 2*base {
		t.Fatalf("pivoting warm re-solve allocates %v per run vs %v packaging-only baseline (%d pivots): steady-state iterations must be allocation-free", per, 2*base, pivots)
	}
	return sparse
}
