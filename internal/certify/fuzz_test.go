package certify_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/solution"
	"tvnep/internal/workload"
)

// fuzzCase is one corpus entry of FuzzSolutionCertify: a scenario and a
// solution of it. The checked-in entries hold certified cΣ access-control
// solutions (TestSolutionCorpusCertifies).
type fuzzCase struct {
	Scenario *workload.Scenario `json:"scenario"`
	Solution *solution.Solution `json:"solution"`
}

// Size caps of one fuzz execution.
const (
	fuzzMaxRequests = 8
	fuzzMaxNodes    = 16
)

// definition21 lists the violation kinds solution.Check enforces.
var definition21 = []certify.Kind{
	certify.Shape, certify.Window, certify.Duration, certify.HostRange,
	certify.FlowRange, certify.FlowConservation, certify.NodeCapacity, certify.LinkCapacity,
}

var allObjectives = []core.Objective{
	core.AccessControl, core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks, core.MinMakespan,
}

// decodeCase parses and bounds one fuzz input; ok is false for inputs out
// of contract (the certifier trusts the instance, not the solution).
func decodeCase(data []byte) (*core.Instance, *workload.Scenario, *solution.Solution, bool) {
	var c fuzzCase
	if json.Unmarshal(data, &c) != nil || c.Scenario == nil || c.Solution == nil {
		return nil, nil, nil, false
	}
	sc := c.Scenario
	if sc.Validate() != nil || len(sc.Requests) > fuzzMaxRequests || sc.Substrate.NumNodes() > fuzzMaxNodes {
		return nil, nil, nil, false
	}
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	if inst.Validate() != nil {
		return nil, nil, nil, false
	}
	return inst, sc, c.Solution, true
}

// mutate applies ops to sol in 5-byte steps (op, a, b, c, val): it shifts
// and aligns times, rehosts virtual nodes, rewrites flows, flips
// acceptances and truncates slices. Indices wrap, so every step applies.
func mutate(sol *solution.Solution, ops []byte) {
	for ; len(ops) >= 5; ops = ops[5:] {
		op, a, b, c, val := ops[0], int(ops[1]), int(ops[2]), int(ops[3]), ops[4]
		shift := (float64(val) - 128) / 8
		switch op % 10 {
		case 0:
			if n := len(sol.Start); n > 0 {
				sol.Start[a%n] += shift
			}
		case 1:
			if n := len(sol.End); n > 0 {
				sol.End[a%n] += shift
			}
		case 2:
			if n := len(sol.Hosts); n > 0 && len(sol.Hosts[a%n]) > 0 {
				h := sol.Hosts[a%n]
				h[b%len(h)] = int(val%16) - 2
			}
		case 3:
			if n := len(sol.Flows); n > 0 && len(sol.Flows[a%n]) > 0 {
				fl := sol.Flows[a%n]
				if f := fl[b%len(fl)]; len(f) > 0 {
					f[c%len(f)] = float64(val)/128 - 0.5
				}
			}
		case 4:
			sol.Hosts = sol.Hosts[:a%(len(sol.Hosts)+1)]
		case 5:
			if n := len(sol.Hosts); n > 0 {
				sol.Hosts[a%n] = sol.Hosts[a%n][:b%(len(sol.Hosts[a%n])+1)]
			}
		case 6:
			if n := len(sol.Flows); n > 0 && len(sol.Flows[a%n]) > 0 {
				fl := sol.Flows[a%n]
				fl[b%len(fl)] = fl[b%len(fl)][:c%(len(fl[b%len(fl)])+1)]
			} else {
				sol.Flows = sol.Flows[:a%(len(sol.Flows)+1)]
			}
		case 7:
			switch c % 3 {
			case 0:
				sol.Accepted = sol.Accepted[:a%(len(sol.Accepted)+1)]
			case 1:
				sol.Start = sol.Start[:a%(len(sol.Start)+1)]
			default:
				sol.End = sol.End[:a%(len(sol.End)+1)]
			}
		case 8:
			if n := len(sol.Accepted); n > 0 {
				sol.Accepted[a%n] = !sol.Accepted[a%n]
			}
		case 9:
			// Start one request exactly where another ends: the open-interval
			// boundary of Definition 2.1.
			if n, m := len(sol.Start), len(sol.End); n > 0 && m > 0 && n == m {
				d := sol.End[a%n] - sol.Start[a%n]
				sol.Start[a%n] = sol.End[b%m]
				sol.End[a%n] = sol.Start[a%n] + d
			}
		}
	}
}

// FuzzSolutionCertify mutates certified cΣ solutions (times, hosts, flows,
// slice lengths) and checks the checker stack against itself: certify
// never panics under any objective, solution.Check accepts exactly when
// the report has no Definition 2.1 violation, and every Timeline segment's
// node loads and active set equal a per-request recomputation at the
// segment's midpoint.
func FuzzSolutionCertify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		inst, sc, sol, ok := decodeCase(data)
		if !ok {
			return
		}
		mutate(sol, ops)
		var rep *certify.Report
		for _, obj := range allObjectives {
			rep = certify.Solution(inst, sol, certify.Options{Objective: obj, Mapping: sc.Mapping})
		}
		infeasible := false
		for _, k := range definition21 {
			infeasible = infeasible || rep.Has(k)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, sol); (err != nil) != infeasible {
			t.Fatalf("Check = %v, report %v", err, rep.Violations)
		}

		// Requests the sweep must leave out: everything when the top-level
		// slices misfit, else each accepted request with a bad embedding.
		misfit := map[int]bool{}
		for _, v := range rep.Violations {
			if v.Kind == certify.Shape || v.Kind == certify.HostRange {
				misfit[v.Request] = true
			}
		}
		segs := solution.Timeline(inst.Sub, inst.Reqs, sol)
		if misfit[-1] && len(segs) > 0 {
			t.Fatalf("timeline of a misshapen solution has %d segments", len(segs))
		}
		for _, seg := range segs {
			mid := (seg.Start + seg.End) / 2
			load := make([]float64, inst.Sub.NumNodes())
			var active []int
			for r, req := range inst.Reqs {
				if !sol.Accepted[r] || misfit[r] || mid <= sol.Start[r] || mid >= sol.End[r] {
					continue
				}
				active = append(active, r)
				for v, host := range sol.Hosts[r] {
					load[host] += req.NodeDemand[v]
				}
			}
			if len(active) != len(seg.Active) {
				t.Fatalf("segment [%v,%v]: active %v, recomputed %v", seg.Start, seg.End, seg.Active, active)
			}
			for i, r := range active {
				if seg.Active[i] != r {
					t.Fatalf("segment [%v,%v]: active %v, recomputed %v", seg.Start, seg.End, seg.Active, active)
				}
			}
			for ns, l := range load {
				if seg.NodeLoad[ns] != l {
					t.Fatalf("segment [%v,%v]: node %d load %v, recomputed %v", seg.Start, seg.End, ns, seg.NodeLoad[ns], l)
				}
			}
		}
	})
}

// TestSolutionCorpusCertifies pins what the checked-in fuzz corpus claims:
// every entry's unmutated solution certifies under access control.
func TestSolutionCorpusCertifies(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSolutionCertify", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus entries (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: truncated corpus entry", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		inst, sc, sol, ok := decodeCase([]byte(data))
		if !ok {
			t.Fatalf("%s: entry does not decode to a valid instance", file)
		}
		rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: sc.Mapping})
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}
