// Package certify is the independent correctness gate of this repository:
// it re-verifies solver outputs against the original problem data, written
// deliberately against the problem statement (Definition 2.1 and the
// Section IV-E objectives) rather than against any MIP formulation, so a
// bug shared by a model builder and its extractor cannot hide from it.
//
// Two certificates are provided: Solution re-checks a solution.Solution
// (solution.Violations' Definition 2.1 checks — windows, durations,
// splittable-flow conservation, node/link capacity at every event
// interval — plus pinned mappings and a full objective recomputation),
// and LP (lpcert.go) re-checks an lp.Result against its
// lp.Problem (primal residuals, bound feasibility, dual feasibility and
// complementary slackness). Every failure is reported as a named Violation
// so tests and CI logs can assert on the exact defect class.
package certify

import (
	"fmt"
	"math"
	"strings"

	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// Kind names one class of certificate violation. The Definition 2.1
// classes are solution's; this package adds its own below and in cuts.go,
// columns.go and lpcert.go.
type Kind = solution.Kind

// Violation is one named certificate failure.
type Violation = solution.Violation

// Solution-certificate violation classes.
const (
	// Shape: solution slices do not match the instance dimensions.
	Shape = solution.Shape
	// Window: a request is scheduled outside [t^s, t^e].
	Window = solution.Window
	// Duration: end − start differs from the request duration.
	Duration = solution.Duration
	// HostRange: a virtual node is hosted on a nonexistent substrate node.
	HostRange = solution.HostRange
	// MappingPinned: a host differs from the a-priori fixed node mapping.
	MappingPinned Kind = "mapping-pinned"
	// FlowRange: a splittable-flow fraction lies outside [0,1].
	FlowRange = solution.FlowRange
	// FlowConservation: a virtual link's flow does not ship one unit from
	// its source host to its destination host.
	FlowConservation = solution.FlowConservation
	// NodeCapacity: a substrate node is overbooked in some event interval.
	NodeCapacity = solution.NodeCapacity
	// LinkCapacity: a substrate link is overbooked in some event interval.
	LinkCapacity = solution.LinkCapacity
	// Objective: the reported objective disagrees with the value recomputed
	// from the solution.
	Objective Kind = "objective-mismatch"
)

// Report collects every violation found by a certificate check.
type Report struct {
	Violations []Violation
	// RecomputedObjective is the objective value derived from the solution
	// data alone (meaningful for Solution reports).
	RecomputedObjective float64
}

// OK reports whether the certificate holds.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the certificate holds and an error naming every
// violation otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("certify: %d violation(s):\n  %s", len(r.Violations), strings.Join(msgs, "\n  "))
}

// Has reports whether the report contains a violation of the given kind.
func (r *Report) Has(k Kind) bool {
	for _, v := range r.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func (r *Report) addf(k Kind, req int, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Kind: k, Request: req, Detail: fmt.Sprintf(format, args...)})
}

// Options configures a Solution certificate.
type Options struct {
	// Objective selects which Section IV-E objective to recompute.
	Objective core.Objective
	// LoadFraction is f for BalanceNodeLoad; outside (0,1) the builders'
	// default of 0.5 applies.
	LoadFraction float64
	// Mapping, when non-nil, asserts that every accepted request uses
	// exactly the pinned virtual-node placement.
	Mapping vnet.NodeMapping
	// SkipObjective disables the objective recomputation (for solutions
	// produced under a custom objective, e.g. single greedy iterations).
	SkipObjective bool
}

func (o Options) loadFraction() float64 {
	if o.LoadFraction <= 0 || o.LoadFraction >= 1 {
		return 0.5
	}
	return o.LoadFraction
}

// Solution re-verifies sol against the instance and returns a report of
// every violation found (never stopping at the first, so a single run
// pins down all defects): solution.Violations' Definition 2.1 checks, the
// pinned mapping, and the objective recomputation.
func Solution(inst *core.Instance, sol *solution.Solution, opts Options) *Report {
	rep := &Report{Violations: solution.Violations(inst.Sub, inst.Reqs, sol)}
	k := len(inst.Reqs)
	if sol == nil || len(sol.Accepted) != k || len(sol.Start) != k || len(sol.End) != k {
		return rep // reported as Shape; nothing below may index sol
	}
	checkMapping(rep, inst, sol, opts.Mapping)
	if !opts.SkipObjective {
		checkObjective(rep, inst, sol, opts)
	}
	return rep
}

// checkMapping reports every host of an accepted request that differs from
// its pinned placement.
func checkMapping(rep *Report, inst *core.Instance, sol *solution.Solution, mapping vnet.NodeMapping) {
	for r := range inst.Reqs {
		if r >= len(mapping) || mapping[r] == nil || !sol.Accepted[r] || r >= len(sol.Hosts) {
			continue
		}
		for v, host := range sol.Hosts[r] {
			if v < len(mapping[r]) && mapping[r][v] != host {
				rep.addf(MappingPinned, r, "virtual node %d hosted on %d, pinned to %d", v, host, mapping[r][v])
			}
		}
	}
}

// checkObjective recomputes the selected Section IV-E objective from the
// solution data and compares it with the reported value. AccessControl and
// MaxEarliness admit an exact recomputation; the counting objectives
// (BalanceNodeLoad, DisableLinks) and MinMakespan are verified one-sidedly
// — a solver may under-claim on a non-optimal incumbent (loose counting
// binaries, slack makespan variable) but never over-claim.
func checkObjective(rep *Report, inst *core.Instance, sol *solution.Solution, opts Options) {
	var recomputed float64
	exact := true
	switch opts.Objective {
	case core.AccessControl:
		for r, req := range inst.Reqs {
			if sol.Accepted[r] {
				recomputed += req.Duration * req.TotalNodeDemand()
			}
		}
	case core.MaxEarliness:
		for r, req := range inst.Reqs {
			flex := req.Flexibility()
			if flex <= numtol.EventCoincide {
				recomputed += req.Duration
				continue
			}
			recomputed += req.Duration * (1 - (sol.Start[r]-req.Earliest)/flex)
		}
	case core.BalanceNodeLoad:
		recomputed = float64(countBalancedNodes(inst, sol, opts.loadFraction()))
		exact = false
	case core.DisableLinks:
		recomputed = float64(countDisabledLinks(inst, sol))
		exact = false
	case core.MinMakespan:
		makespan := 0.0
		for r := range inst.Reqs {
			if sol.End[r] > makespan {
				makespan = sol.End[r]
			}
		}
		recomputed = -makespan
		exact = false
	default:
		rep.addf(Objective, -1, "unknown objective %d", int(opts.Objective))
		return
	}
	rep.RecomputedObjective = recomputed
	diff := sol.Objective - recomputed
	scale := 1 + math.Abs(recomputed)
	if exact {
		if math.Abs(diff) > numtol.ObjTol*scale {
			rep.addf(Objective, -1, "reported %v, recomputed %v (objective %v)", sol.Objective, recomputed, opts.Objective)
		}
	} else if diff > numtol.ObjTol*scale {
		rep.addf(Objective, -1, "reported %v exceeds recomputed bound %v (objective %v)", sol.Objective, recomputed, opts.Objective)
	}
}

// countBalancedNodes counts substrate nodes whose load stays within
// fraction f of capacity in every event interval.
func countBalancedNodes(inst *core.Instance, sol *solution.Solution, f float64) int {
	sub := inst.Sub
	n := sub.NumNodes()
	unbalanced := make([]bool, n)
	solution.Sweep(sub, inst.Reqs, sol, func(seg *solution.TimelineSegment) bool {
		for ns, load := range seg.NodeLoad {
			if load > f*sub.NodeCap[ns]+numtol.CapTol && !unbalanced[ns] {
				unbalanced[ns] = true
				n--
			}
		}
		return true
	})
	return n
}

// countDisabledLinks counts substrate links carrying no flow from any
// accepted request.
func countDisabledLinks(inst *core.Instance, sol *solution.Solution) int {
	sub := inst.Sub
	used := make([]float64, sub.NumLinks())
	for r, req := range inst.Reqs {
		if !sol.Accepted[r] || len(sol.Flows) <= r {
			continue
		}
		for lv := 0; lv < req.G.NumEdges() && lv < len(sol.Flows[r]); lv++ {
			for ls, f := range sol.Flows[r][lv] {
				if ls < sub.NumLinks() {
					used[ls] += f
				}
			}
		}
	}
	n := 0
	for _, u := range used {
		if u <= numtol.FlowTol {
			n++
		}
	}
	return n
}
