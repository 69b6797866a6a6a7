package admit

import (
	"context"
	"math"
	"strings"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/greedy"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// trace generates a seeded arrival trace sized for the test mode.
func trace(t *testing.T, n int, seed int64) *workload.Scenario {
	t.Helper()
	cfg := workload.Default()
	cfg.NumRequests = n
	cfg.FlexibilityHr = 2
	sc := workload.Generate(cfg, seed)
	if err := sc.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	return sc
}

// replay streams a whole scenario through a fresh engine and returns it.
func replay(t *testing.T, sc *workload.Scenario, cfg Config) *Engine {
	t.Helper()
	cfg.Sub = sc.Substrate
	cfg.Horizon = sc.Horizon
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, req := range sc.Requests {
		if _, err := eng.Admit(context.Background(), req, sc.Mapping[i]); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
	}
	return eng
}

// TestReplayDeterminism replays one seeded trace at several worker counts
// and requires the bit-identical accept/reject sequence and schedules: the
// admission engine's contract is that parallelism never changes decisions.
func TestReplayDeterminism(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	sc := trace(t, n, 7)
	var base []Decision
	for _, workers := range []int{1, 2, 4, 8} {
		eng := replay(t, sc, Config{Solve: model.SolveOptions{Workers: workers}, Certify: true})
		ds := eng.Decisions()
		if base == nil {
			base = ds
			continue
		}
		for i := range ds {
			if ds[i].Accepted != base[i].Accepted {
				t.Fatalf("workers=%d: decision %d accept=%v, workers=1 gave %v",
					workers, i, ds[i].Accepted, base[i].Accepted)
			}
			if math.Float64bits(ds[i].Start) != math.Float64bits(base[i].Start) ||
				math.Float64bits(ds[i].End) != math.Float64bits(base[i].End) {
				t.Fatalf("workers=%d: decision %d schedule [%v,%v] != [%v,%v]",
					workers, i, ds[i].Start, ds[i].End, base[i].Start, base[i].End)
			}
		}
	}
}

// TestWarmRestartRegression guards the commitment hot-restart: across a
// streamed trace the warm-started share of restarts must stay positive —
// the whole point of keeping the LP instance hot between the deciding solve
// and the decision pin.
func TestWarmRestartRegression(t *testing.T) {
	sc := trace(t, 25, 3)
	eng := replay(t, sc, Config{})
	s := eng.Stats()
	if s.WarmAttempts == 0 {
		t.Fatal("no commitment hot-restarts were attempted")
	}
	if s.WarmUsed == 0 {
		t.Fatalf("warm-restart hit rate is zero across %d attempts", s.WarmAttempts)
	}
	t.Logf("warm rate %.2f (%d/%d), basis extensions %d",
		s.WarmRate(), s.WarmUsed, s.WarmAttempts, s.BasisExtended)
	if s.BasisExtended == 0 {
		t.Fatal("no warm restart extended the LU factors over the appended pin rows")
	}
}

// TestMatchesGreedy streams a trace whose arrival order equals the
// earliest-start order (workload arrivals are Poisson-ordered) and checks
// the engine reproduces the offline greedy cΣ_A^G accept set and schedules:
// the engine is the same algorithm, computed incrementally with active-set
// pruning and tiered solves, so the decisions must coincide.
func TestMatchesGreedy(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 12
	}
	sc := trace(t, n, 11)
	eng := replay(t, sc, Config{})

	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	gsol, _, err := greedy.Solve(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	ds := eng.Decisions()
	for i := range sc.Requests {
		if ds[i].Accepted != gsol.Accepted[i] {
			t.Errorf("request %d: engine accept=%v, greedy accept=%v", i, ds[i].Accepted, gsol.Accepted[i])
			continue
		}
		if !ds[i].Accepted {
			continue
		}
		if math.Abs(ds[i].Start-gsol.Start[i]) > numtol.TimeTol {
			t.Errorf("request %d: engine start %v, greedy start %v", i, ds[i].Start, gsol.Start[i])
		}
	}
}

// TestSnapshotCertifies certifies the engine's cumulative solution with the
// independent checker after a full streamed trace, under the access-control
// objective the engine optimizes.
func TestSnapshotCertifies(t *testing.T) {
	sc := trace(t, 25, 5)
	eng := replay(t, sc, Config{Certify: true})
	if err := certifySnapshot(eng); err != nil {
		t.Fatalf("snapshot does not certify: %v", err)
	}
	inst, _, sol := eng.Snapshot()
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		t.Fatalf("snapshot fails the feasibility checker: %v", err)
	}
	s := eng.Stats()
	if s.Decisions != len(sc.Requests) {
		t.Fatalf("decisions %d != requests %d", s.Decisions, len(sc.Requests))
	}
	if s.Accepted == 0 {
		t.Fatal("trace accepted nothing; scenario too tight to be meaningful")
	}
	t.Logf("accepted %d/%d, tiers precheck=%d lp=%d mip=%d",
		s.Accepted, s.Decisions, s.PrecheckTier, s.LPTier, s.MIPTier)
}

// TestPrecheckReject covers the no-solve tier: a request whose own demand
// exceeds a node capacity must be rejected without touching the solver.
func TestPrecheckReject(t *testing.T) {
	sc := trace(t, 1, 1)
	eng := replay(t, sc, Config{})
	req := *sc.Requests[0]
	req.Name = "too-big"
	req.NodeDemand = append([]float64(nil), req.NodeDemand...)
	req.NodeDemand[0] = sc.Substrate.NodeCap[sc.Mapping[0][0]] + 1
	d, err := eng.Admit(context.Background(), &req, sc.Mapping[0])
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if d.Accepted || d.Stats.Tier != TierPrecheck {
		t.Fatalf("want precheck rejection, got accepted=%v tier=%q", d.Accepted, d.Stats.Tier)
	}
	if d.Start != req.Earliest || d.End != req.EarliestEnd() {
		t.Fatalf("rejected times [%v,%v] != Definition-2.1 fixed [%v,%v]",
			d.Start, d.End, req.Earliest, req.EarliestEnd())
	}
}

// TestNoCertDowngrades replays the benchmark's HTTP admission trace with
// certification on and requires that no accepting decision is downgraded.
// Solved on the engine's whole horizon, the per-decision models let a start
// slip by horizon·MIPIntTol past a committed end (big-M leakage) or a few
// ulps before it, and the certifier rejected those overlaps; the first one
// is decision 284. The committed snapshot must pass the full certificate at
// the end.
func TestNoCertDowngrades(t *testing.T) {
	eng := replay(t, httpTrace(), Config{Certify: true})
	for _, d := range eng.Decisions() {
		if d.CertErr != nil {
			t.Errorf("decision %d downgraded: %v", d.Index, d.CertErr)
		}
	}
	if s := eng.Stats(); s.CertFailures != 0 {
		t.Fatalf("%d certification downgrades in %d decisions", s.CertFailures, s.Decisions)
	}
	if err := certifySnapshot(eng); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

// TestWindowedCertifyAgreesWithFull runs the full certificate over the
// whole committed snapshot after every decision of the HTTP admission
// trace. Each accept is certified only against the committed requests it
// overlaps; the full certificate is the oracle that this window loses
// nothing.
func TestWindowedCertifyAgreesWithFull(t *testing.T) {
	sc := httpTrace()
	eng, err := New(Config{Sub: sc.Substrate, Horizon: sc.Horizon, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range sc.Requests {
		d, err := eng.Admit(context.Background(), req, sc.Mapping[i])
		if err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
		if d.CertErr != nil {
			t.Fatalf("decision %d: windowed certificate rejected an accept: %v", i, d.CertErr)
		}
		if err := certifySnapshot(eng); err != nil {
			t.Fatalf("decision %d: full certificate fails after a windowed pass: %v", i, err)
		}
	}
}

// httpTrace is the benchmark's HTTP admission trace (seed 4), cut to its
// first 1300 requests, or 300 under -short.
func httpTrace() *workload.Scenario {
	cfg := workload.Default()
	cfg.NumRequests = 2000
	cfg.StarLeaves = 1
	cfg.FlexibilityHr = 2
	sc := workload.Generate(cfg, 4)
	n := 1300
	if testing.Short() {
		n = 300
	}
	sc.Requests, sc.Mapping = sc.Requests[:n], sc.Mapping[:n]
	return sc
}

// certifySnapshot runs the full access-control certificate over the
// engine's whole committed snapshot.
func certifySnapshot(eng *Engine) error {
	inst, mapping, sol := eng.Snapshot()
	rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	return rep.Err()
}

// TestCertifyDecisionMutations forges accepts against one committed request
// on a 1×2 grid (node capacity 2, one link each way of capacity 1). The committed request is a two-node chain on [0, 4], hosted on nodes
// 0 and 1 and routed over link 0→1; the arriving one is a chain with the
// same demands. The windowed certificate must catch every overload inside
// the window and every fault of the arriving request itself, and must pass
// an abutting schedule as Sweep's midpoint rule does.
func TestCertifyDecisionMutations(t *testing.T) {
	sub := substrate.Grid(1, 2, 2, 1)
	chain := func(name string, nodeDemand, linkDemand, earliest, latest float64) *vnet.Request {
		r := vnet.Chain(name, 2, nodeDemand, linkDemand)
		r.Duration = 4
		r.Earliest, r.Latest = earliest, latest
		return r
	}
	forward := [][]float64{{1, 0}}  // virtual link over substrate link 0→1
	backward := [][]float64{{0, 1}} // over substrate link 1→0
	cases := []struct {
		name                   string
		nodeDemand, linkDemand float64
		earliest, latest       float64 // arriving window
		acc                    acceptance
		want                   certify.Kind // "" for none
	}{
		{"fits", 0.5, 0.1, 0, 12, acceptance{2, 6, []int{0, 1}, forward}, ""},
		{"node-partial-overlap", 1.2, 0.1, 0, 12, acceptance{2, 6, []int{0, 1}, forward}, certify.NodeCapacity},
		{"link-overload", 0.5, 0.6, 0, 12, acceptance{2, 6, []int{0, 1}, forward}, certify.LinkCapacity},
		{"abutting", 1.2, 0.6, 0, 12, acceptance{4, 8, []int{0, 1}, forward}, ""},
		{"wrong-duration", 0.5, 0.1, 4, 12, acceptance{5, 8, []int{0, 1}, forward}, certify.Duration},
		{"window-breach", 0.5, 0.1, 4, 12, acceptance{3, 7, []int{0, 1}, forward}, certify.Window},
		{"host-off-mapping", 0.5, 0.1, 4, 12, acceptance{4, 8, []int{1, 0}, backward}, certify.MappingPinned},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Config{Sub: sub, Horizon: 20, Certify: true})
			if err != nil {
				t.Fatal(err)
			}
			eng.active = []*record{{
				req:     chain("committed", tc.nodeDemand, tc.linkDemand, 0, 4),
				mapping: []int{0, 1},
				decided: Decision{Accepted: true, Start: 0, End: 4, Hosts: []int{0, 1}, Flows: forward},
			}}
			rec := &record{req: chain("arriving", tc.nodeDemand, tc.linkDemand, tc.earliest, tc.latest), mapping: []int{0, 1}}
			err = eng.certifyDecision(rec, &tc.acc)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("want no violation, got %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), string(tc.want))):
				t.Fatalf("want a %s violation, got %v", tc.want, err)
			}
		})
	}
}
