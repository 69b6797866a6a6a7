// Package solution defines the output format of every TVNEP solver in this
// repository, the one event sweep over a schedule (Sweep) and the one
// feasibility checker (Violations, Check) that verifies Definition 2.1 on
// it — deliberately written against the problem statement rather than any
// of the MIP formulations, so model bugs cannot hide from it. The
// certifier, the timeline and the rounding tier's repair all build on
// these two.
package solution

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// Solution is a (candidate) solution to a TVNEP instance.
type Solution struct {
	// Accepted[r] reports whether request r is embedded (x_R).
	Accepted []bool
	// Start[r], End[r] are t⁺_R and t⁻_R. Definition 2.1 fixes them for
	// every request, accepted or not.
	Start, End []float64
	// Hosts[r][v] is the substrate node hosting virtual node v of request r
	// (meaningful when accepted).
	Hosts [][]int
	// Flows[r][lv][ls] is the fraction of virtual link lv of request r
	// routed over substrate link ls (splittable flows, x_E ∈ [0,1]).
	Flows [][][]float64

	// Solver metadata.
	Objective float64
	Bound     float64
	Gap       float64
	Optimal   bool
	Nodes     int
	Runtime   time.Duration

	// Warnings collects non-fatal consistency notes produced while the
	// solution was extracted from a solver (e.g. a model time variable
	// disagreeing with the duration-derived schedule beyond tolerance).
	Warnings []string
}

// NumAccepted counts embedded requests.
func (s *Solution) NumAccepted() int {
	n := 0
	for _, a := range s.Accepted {
		if a {
			n++
		}
	}
	return n
}

// Kind names one class of Definition 2.1 violation.
type Kind string

// Definition 2.1 violation classes.
const (
	// Shape: solution slices do not match the instance dimensions.
	Shape Kind = "shape"
	// Window: a request is scheduled outside [t^s, t^e].
	Window Kind = "window"
	// Duration: end − start differs from the request duration.
	Duration Kind = "duration"
	// HostRange: a virtual node is hosted on a nonexistent substrate node.
	HostRange Kind = "host-range"
	// FlowRange: a splittable-flow fraction lies outside [0,1].
	FlowRange Kind = "flow-range"
	// FlowConservation: a virtual link's flow does not ship one unit from
	// its source host to its destination host.
	FlowConservation Kind = "flow-conservation"
	// NodeCapacity: a substrate node is overbooked in some event interval.
	NodeCapacity Kind = "node-capacity"
	// LinkCapacity: a substrate link is overbooked in some event interval.
	LinkCapacity Kind = "link-capacity"
)

// Violation is one named feasibility failure.
type Violation struct {
	Kind    Kind
	Request int // request index, or -1 when instance-scoped
	Detail  string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Request >= 0 {
		return fmt.Sprintf("%s[req %d]: %s", v.Kind, v.Request, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

type violations []Violation

func (vs *violations) addf(k Kind, r int, format string, args ...interface{}) {
	*vs = append(*vs, Violation{Kind: k, Request: r, Detail: fmt.Sprintf(format, args...)})
}

// Check verifies the solution against Definition 2.1: temporal windows,
// durations, per-virtual-link unit flows, and node/link capacities at every
// point in time. It returns nil iff the solution is feasible, and the first
// violation otherwise.
func Check(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) error {
	if vs := Violations(sub, reqs, sol); len(vs) > 0 {
		return fmt.Errorf("solution: %v", vs[0])
	}
	return nil
}

// Violations re-verifies sol against Definition 2.1 and returns every
// violation found, in a fixed order: per request its schedule, then (when
// accepted) its embedding, then the capacities of each event interval in
// time order. It never stops at the first defect, so one run pins down all
// of them, and it never panics on malformed solutions.
func Violations(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) []Violation {
	var vs violations
	if sol == nil {
		vs.addf(Shape, -1, "nil solution")
		return vs
	}
	if !lengthsMatch(reqs, sol) {
		vs.addf(Shape, -1, "slice lengths (%d,%d,%d) do not match %d requests",
			len(sol.Accepted), len(sol.Start), len(sol.End), len(reqs))
		return vs
	}
	for r, req := range reqs {
		vs.checkTemporal(req, sol, r)
		if sol.Accepted[r] {
			vs.checkEmbedding(sub, req, sol, r)
		}
	}
	Sweep(sub, reqs, sol, func(seg *TimelineSegment) bool {
		t := (seg.Start + seg.End) / 2
		for ns, load := range seg.NodeLoad {
			if load > sub.NodeCap[ns]+numtol.CapTol {
				vs.addf(NodeCapacity, -1, "t=%v: substrate node %d loaded %v > capacity %v", t, ns, load, sub.NodeCap[ns])
			}
		}
		for ls, load := range seg.LinkLoad {
			if load > sub.LinkCap[ls]+numtol.CapTol {
				vs.addf(LinkCapacity, -1, "t=%v: substrate link %d loaded %v > capacity %v", t, ls, load, sub.LinkCap[ls])
			}
		}
		return true
	})
	return vs
}

func lengthsMatch(reqs []*vnet.Request, sol *Solution) bool {
	k := len(reqs)
	return len(sol.Accepted) == k && len(sol.Start) == k && len(sol.End) == k
}

// The comparisons are negated so a NaN time fails them.
func (vs *violations) checkTemporal(req *vnet.Request, sol *Solution, r int) {
	st, en := sol.Start[r], sol.End[r]
	if !(math.Abs((en-st)-req.Duration) <= numtol.TimeTol) {
		vs.addf(Duration, r, "scheduled duration %v != d=%v", en-st, req.Duration)
	}
	if !(st >= req.Earliest-numtol.TimeTol) {
		vs.addf(Window, r, "starts at %v before earliest %v", st, req.Earliest)
	}
	if !(en <= req.Latest+numtol.TimeTol) {
		vs.addf(Window, r, "ends at %v after latest %v", en, req.Latest)
	}
}

func (vs *violations) checkEmbedding(sub *substrate.Network, req *vnet.Request, sol *Solution, r int) {
	if k, detail := misfit(sub, req, sol, r); k != "" {
		vs.addf(k, r, "%s", detail)
		return
	}
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		u, v := req.G.Edge(lv)
		flow := sol.Flows[r][lv]
		for ls, f := range flow {
			if !(f >= -numtol.FlowTol && f <= 1+numtol.FlowTol) {
				vs.addf(FlowRange, r, "virtual link %d: flow %v on substrate link %d outside [0,1]", lv, f, ls)
			}
		}
		src, dst := sol.Hosts[r][u], sol.Hosts[r][v]
		for ns := 0; ns < sub.NumNodes(); ns++ {
			bal := 0.0
			for _, e := range sub.G.Out(ns) {
				bal += flow[e]
			}
			for _, e := range sub.G.In(ns) {
				bal -= flow[e]
			}
			want := 0.0
			if ns == src {
				want++
			}
			if ns == dst {
				want--
			}
			if !(math.Abs(bal-want) <= numtol.FlowTol) {
				vs.addf(FlowConservation, r, "virtual link %d: balance %v at substrate node %d, want %v", lv, bal, ns, want)
			}
		}
	}
}

// misfit reports why request r's host or flow slices do not match the
// instance's shape (Shape or HostRange), or "" when they do. Only requests
// that fit are indexed by the flow checks and by Sweep.
func misfit(sub *substrate.Network, req *vnet.Request, sol *Solution, r int) (Kind, string) {
	if len(sol.Hosts) <= r || len(sol.Hosts[r]) != req.G.N {
		return Shape, "missing host assignment"
	}
	for v, host := range sol.Hosts[r] {
		if host < 0 || host >= sub.NumNodes() {
			return HostRange, fmt.Sprintf("virtual node %d hosted on invalid substrate node %d", v, host)
		}
	}
	if len(sol.Flows) <= r || len(sol.Flows[r]) != req.G.NumEdges() {
		return Shape, "missing flow assignment"
	}
	for lv, flow := range sol.Flows[r] {
		if len(flow) != sub.NumLinks() {
			return Shape, fmt.Sprintf("virtual link %d: flow over %d substrate links, want %d", lv, len(flow), sub.NumLinks())
		}
	}
	return "", ""
}

// Sweep is the event sweep of Section III-A: it sorts the start and end
// times of the accepted requests and calls visit once per open interval
// between consecutive events, skipping intervals shorter than
// numtol.EventCoincide, in time order. The segment carries the node and
// link loads and the active requests at the interval's midpoint,
// recomputed from scratch there (requests, virtual nodes, virtual and
// substrate links all in ascending order, link flows counted above
// numtol.FlowTol), so every caller sees bit-identical loads. An accepted
// request whose host or flow slices do not match the instance's shape adds
// no load and is never active; a solution whose slice lengths do not match
// the request list yields no segments. The segment's slices are reused
// across calls; visit must copy what it keeps, and returning false stops
// the sweep.
func Sweep(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, visit func(*TimelineSegment) bool) {
	if sol == nil || !lengthsMatch(reqs, sol) {
		return
	}
	live := make([]bool, len(reqs))
	var events []float64
	for r, req := range reqs {
		if sol.Accepted[r] {
			if k, _ := misfit(sub, req, sol, r); k == "" {
				live[r] = true
				events = append(events, sol.Start[r], sol.End[r])
			}
		}
	}
	sort.Float64s(events)
	seg := TimelineSegment{
		NodeLoad: make([]float64, sub.NumNodes()),
		LinkLoad: make([]float64, sub.NumLinks()),
	}
	for i := 0; i+1 < len(events); i++ {
		if !(events[i+1]-events[i] >= numtol.EventCoincide) {
			continue
		}
		seg.Start, seg.End = events[i], events[i+1]
		seg.Active = seg.Active[:0]
		clear(seg.NodeLoad)
		clear(seg.LinkLoad)
		t := (seg.Start + seg.End) / 2
		for r, req := range reqs {
			if !live[r] || t <= sol.Start[r] || t >= sol.End[r] {
				continue
			}
			seg.Active = append(seg.Active, r)
			for v, host := range sol.Hosts[r] {
				seg.NodeLoad[host] += req.NodeDemand[v]
			}
			for lv := 0; lv < req.G.NumEdges(); lv++ {
				for ls, f := range sol.Flows[r][lv] {
					if f > numtol.FlowTol {
						seg.LinkLoad[ls] += req.LinkDemand[lv] * f
					}
				}
			}
		}
		if !visit(&seg) {
			return
		}
	}
}
