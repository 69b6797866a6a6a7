package lp

import (
	"context"
	"slices"
	"testing"
	"time"
)

// coverLP is a small LP whose all-slack basis is primal infeasible (each
// covering row is violated at the columns' lower bounds), so a cold solve
// that gave up on its dual phase 1 would install artificials.
func coverLP() *Problem {
	p := NewProblem()
	for j := 0; j < 6; j++ {
		p.AddCol(float64(1+j%3), 0, 10, "")
	}
	for i := 0; i < 4; i++ {
		p.AddGE([]int32{int32(i), int32(i + 1), int32(i + 2)}, []float64{1, 2, 1}, float64(1+i), "")
	}
	return p
}

// TestInterruptEndsSolve pins that an interrupted solve stops at once: a
// warm and a cold solve under a cancelled context and under an expired
// deadline report StatusIterLimit without a cold retry of the warm start
// and without the artificial-variable phase 1.
func TestInterruptEndsSolve(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	interrupts := map[string]func(*Options){
		"cancelled": func(o *Options) { o.Context = cancelled },
		"deadline":  func(o *Options) { o.Deadline = time.Now().Add(-time.Second) },
	}
	for _, name := range []string{"cancelled", "deadline"} {
		inst := NewInstance(coverLP())
		first := inst.Solve(&Options{})
		if first.Status != StatusOptimal {
			t.Fatalf("%s: uninterrupted solve status %v, want optimal", name, first.Status)
		}
		s := inst.sv
		noArtificials := func(what string) {
			t.Helper()
			for _, j := range s.basis {
				if int(j) >= s.nm {
					t.Fatalf("%s %s: artificial column %d is basic: the artificial phase 1 ran", name, what, j)
				}
			}
		}

		cold := Options{}
		interrupts[name](&cold)
		if res := inst.Solve(&cold); res.Status != StatusIterLimit {
			t.Fatalf("%s cold: status %v, want iteration-limit", name, res.Status)
		}
		noArtificials("cold")

		warm := Options{WarmBasis: first.Basis}
		interrupts[name](&warm)
		if res := inst.Solve(&warm); res.Status != StatusIterLimit {
			t.Fatalf("%s warm: status %v, want iteration-limit", name, res.Status)
		}
		noArtificials("warm")
		if !slices.Equal(s.basis, first.Basis.Basic) {
			t.Fatalf("%s warm: solver basis moved off the warm basis: a cold retry ran", name)
		}
	}
}
