package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tvnep/pkg/tvnep"
)

func workloadList() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runTiny runs one tiny-size benchmark run and returns stdout and the
// decoded final JSON line.
func runTiny(t *testing.T, name, trace string) (string, report) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", trace, "--tiny",
		"--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	return out.String(), rep
}

// TestTinyRunEmitsEveryMetric: a tiny-size run of every workload prints
// every named metric with its unit, and the final line carries exactly
// the contract's metric set.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadList() {
		for _, tc := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			out, rep := runTiny(t, name, tc.trace)
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", name, tc.trace, rep.Correct, rep.Attempted)
			}
			if len(rep.Metrics) != len(tc.defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, tc.trace, len(rep.Metrics), len(tc.defs))
			}
			for _, m := range tc.defs {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q != %q", name, tc.trace, m.Name, v.Unit, m.Unit)
				}
				if !strings.Contains(out, m.Name) || !strings.Contains(out, "("+m.Better+" is better)") {
					t.Errorf("%s trace=%s: %s not printed with its direction", name, tc.trace, m.Name)
				}
			}
			if tc.trace == "0" {
				for _, m := range tc.defs {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
				w := workloads[name](1, true)
				for _, q := range w.quality() {
					if !strings.Contains(out, q) {
						t.Errorf("%s: quality metric %s not printed", name, q)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadList(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadList())
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestGateRejectsDoubledFlows: doubling one committed decision's flows in
// the snapshot makes the snapshot certificate fail.
func TestGateRejectsDoubledFlows(t *testing.T) {
	a := newAdmitHTTP(1, true).(*admitHTTP)
	if err := a.setup(); err != nil {
		t.Fatal(err)
	}
	defer a.close()
	if _, err := a.pass(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	inst, mapping, sol := a.solver.Snapshot()
	if err := certifySnapshot(inst, mapping, sol); err != nil {
		t.Fatalf("unmutated snapshot rejected: %v", err)
	}
	mutated := false
	for r, acc := range sol.Accepted {
		if !acc || len(sol.Flows[r]) == 0 {
			continue
		}
		for lv := range sol.Flows[r] {
			for ls := range sol.Flows[r][lv] {
				sol.Flows[r][lv][ls] *= 2
			}
		}
		mutated = true
		break
	}
	if !mutated {
		t.Fatal("no accepted decision with flows to mutate")
	}
	if err := certifySnapshot(inst, mapping, sol); !errors.Is(err, errBreach) {
		t.Fatalf("doubled flows passed the gate: %v", err)
	}
}

// TestGateRejectsHTTPMismatch: a decision that differs between the HTTP
// and the direct replay fails the traced run's gate.
func TestGateRejectsHTTPMismatch(t *testing.T) {
	a := newAdmitHTTP(1, true).(*admitHTTP)
	if err := a.setup(); err != nil {
		t.Fatal(err)
	}
	defer a.close()
	tr := newTracer()
	p, err := a.pass(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	resps := make([]*tvnep.AdmitResponse, len(a.sc.Requests))
	for i, d := range a.solver.Decisions() {
		resps[i] = &tvnep.AdmitResponse{
			Index: d.Index, Name: d.Name, Accepted: d.Accepted, Start: d.Start, End: d.End, Hosts: d.Hosts,
			Tier: d.Stats.Tier, LPIterations: d.Stats.LPIterations, Nodes: d.Stats.Nodes,
			WarmUsed: d.Stats.WarmUsed, BasisExtended: d.Stats.BasisExtended,
		}
	}
	resps[3].Start += 1e-9
	if err := a.directReplay(context.Background(), tr, p, resps); !errors.Is(err, errBreach) {
		t.Fatalf("perturbed decision passed the gate: %v", err)
	}
}

// TestGateRejectsPerturbedObjective: a solve whose objective disagrees
// with its solution fails the certificate, and a pass whose objective
// differs from an earlier pass fails the repeat check.
func TestGateRejectsPerturbedObjective(t *testing.T) {
	s := newExactGrid(1, true).(*solveBench)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := s.scens[0]
	out := s.facadeOp(ctx, sc)
	if out.err != nil {
		t.Fatal(out.err)
	}
	good, bad := &passResult{}, &passResult{}
	if err := s.record(good, sc, out); err != nil {
		t.Fatalf("unmutated op rejected: %v", err)
	}
	out.sol.Objective += 1e-6
	if err := s.record(bad, sc, out); err != nil {
		t.Fatal(err)
	}
	if err := sameOutcome(good, bad); !errors.Is(err, errBreach) {
		t.Fatalf("perturbed objective passed the repeat check: %v", err)
	}
	out.sol.Objective += 1
	out.err = s.tracedVerify(nil, 0, -1, sc.inst, sc.sc.Mapping, out.sol, nil, nil)
	if err := s.record(&passResult{}, sc, out); !errors.Is(err, errBreach) {
		t.Fatalf("objective off by 1 passed the certificate: %v", err)
	}
}

// TestGateRejectsObjectiveAboveBound: a rounded objective above the LP
// bound fails the paper-round gate.
func TestGateRejectsObjectiveAboveBound(t *testing.T) {
	s := newPaperRound(1, true).(*solveBench)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	sc := s.scens[0]
	out := s.facadeOp(context.Background(), sc)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if err := s.record(&passResult{}, sc, out); err != nil {
		t.Fatalf("unmutated op rejected: %v", err)
	}
	out.rs.LPBound = out.sol.Objective - 1
	if err := s.record(&passResult{}, sc, out); !errors.Is(err, errBreach) {
		t.Fatalf("objective above the LP bound passed the gate: %v", err)
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// clipped to its own interval.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &tracer{spans: []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 10 * ms},
		{Name: "a", ID: 1, Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "b", ID: 2, Parent: 0, Start: 3 * ms, End: 5 * ms},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 9 * ms, End: 12 * ms}, // runs past op
		{Name: "d", ID: 4, Parent: 1, Start: 2 * ms, End: 3 * ms},
	}}
	self := tr.selfTimes()
	want := []time.Duration{5 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, time.Millisecond}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
}

// TestHDMedian: the Harrell–Davis median of a symmetric sample is its
// centre, of one value that value, and it stays within the sample.
func TestHDMedian(t *testing.T) {
	if got := hdMedian([]float64{7}); math.Abs(got-7) > 1e-9 {
		t.Errorf("single value: %v", got)
	}
	if got := hdMedian([]float64{5, 1, 3, 2, 4}); math.Abs(got-3) > 1e-6 {
		t.Errorf("symmetric sample: %v, want 3", got)
	}
	xs := []float64{1, 1, 2, 50, 60, 61, 300, 5000}
	if got := hdMedian(xs); got < 2 || got > 300 {
		t.Errorf("skewed sample: %v outside its middle order statistics", got)
	}
}
