package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// admitHTTP replays a generated arrival trace through the admission
// service over loopback HTTP: one client, closed loop, one keep-alive
// connection, requests in arrival order. Each pass admits the whole trace
// into a fresh solver, because the committed set grows along the trace and
// the decision order defines the results.
type admitHTTP struct {
	seed     int64
	requests int

	sc     *workload.Scenario
	bodies [][]byte

	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	// target is the service the listener currently forwards to; each pass
	// installs a fresh one. spans is the current pass's tracer (nil when
	// untraced).
	target atomic.Pointer[tvnep.Server]
	spans  atomic.Pointer[tracer]

	// solver is the last pass's solver: its engine log is the live heap
	// the timed run reports.
	solver *tvnep.Solver
}

const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

func newAdmitHTTP(seed int64, tiny bool) bench {
	n := 2000
	if tiny {
		n = 40
	}
	return &admitHTTP{seed: seed, requests: n}
}

func (a *admitHTTP) quality() []string {
	return []string{"op_p99_ms", "fail_rate", "accept_rate"}
}

func (a *admitHTTP) newSolver() (*tvnep.Solver, error) {
	return tvnep.New(a.sc.Substrate, tvnep.WithHorizon(a.sc.Horizon), tvnep.WithCertify())
}

func (a *admitHTTP) setup() error {
	wl := workload.Default()
	wl.NumRequests = a.requests
	wl.StarLeaves = 1
	wl.FlexibilityHr = 2
	a.sc = workload.Generate(wl, a.seed)
	a.bodies = make([][]byte, len(a.sc.Requests))
	for i, r := range a.sc.Requests {
		body, err := json.Marshal(tvnep.AdmitRequest{Request: tvnep.EncodeRequest(r), Mapping: a.sc.Mapping[i]})
		if err != nil {
			return fmt.Errorf("encode request %d: %w", i, err)
		}
		a.bodies[i] = body
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	a.url = "http://" + ln.Addr().String() + "/v1/admit"
	a.srv = &http.Server{Handler: http.HandlerFunc(a.serveHTTP), ReadHeaderTimeout: 10 * time.Second}
	a.served = make(chan error, 1)
	go func() { a.served <- a.srv.Serve(ln) }()
	a.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}

	// Warm-up op on a throwaway solver: first connection, first decision.
	throwaway, err := a.newSolver()
	if err != nil {
		return err
	}
	a.target.Store(tvnep.NewServer(throwaway))
	if _, err := a.post(0, nil, -1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (a *admitHTTP) close() {
	if a.client != nil {
		a.client.CloseIdleConnections()
	}
	if a.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = a.srv.Shutdown(ctx) // a stuck handler surfaces as Serve not returning below
		<-a.served
		a.srv = nil
	}
}

// serveHTTP forwards to the current service, inside a span when traced.
func (a *admitHTTP) serveHTTP(w http.ResponseWriter, r *http.Request) {
	srv := a.target.Load()
	tr := a.spans.Load()
	if tr == nil {
		srv.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.Atoi(r.Header.Get(headerOp))
	parent, _ := strconv.Atoi(r.Header.Get(headerSpan))
	id := tr.begin("tvnep.ServeHTTP", op, parent)
	srv.ServeHTTP(w, r)
	tr.end(id)
}

// errStatus is a non-2xx admit response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends request i and decodes the decision.
func (a *admitHTTP) post(i int, tr *tracer, span int) (*tvnep.AdmitResponse, error) {
	req, err := http.NewRequest(http.MethodPost, a.url, bytes.NewReader(a.bodies[i]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(headerOp, strconv.Itoa(i))
		req.Header.Set(headerSpan, strconv.Itoa(span))
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &errStatus{code: resp.StatusCode, body: string(data)}
	}
	var out tvnep.AdmitResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("decode decision %d: %w", i, err)
	}
	return &out, nil
}

func (a *admitHTTP) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	solver, err := a.newSolver()
	if err != nil {
		return nil, err
	}
	a.solver = solver
	a.target.Store(tvnep.NewServer(solver))
	a.spans.Store(tr)
	defer a.spans.Store(nil)

	n := len(a.bodies)
	p := &passResult{offered: n, latMS: make([]float64, 0, n), outcome: make([]string, 0, n)}
	resps := make([]*tvnep.AdmitResponse, n)
	begin := time.Now()
	for i := range a.bodies {
		t0 := time.Now()
		id := tr.begin("http.RoundTrip", i, -1)
		resp, err := a.post(i, tr, id)
		tr.end(id)
		p.latMS = append(p.latMS, ms(time.Since(t0)))
		var se *errStatus
		switch {
		case errors.As(err, &se):
			p.failed++
			p.outcome = append(p.outcome, fmt.Sprintf("%d %s", i, se))
			continue
		case err != nil:
			// Transport failures are not deterministic outputs; the
			// failure itself is what the pass records.
			p.failed++
			p.outcome = append(p.outcome, fmt.Sprintf("%d transport error", i))
			continue
		}
		if resp.Index != i {
			return p, breachf("decision %d answered with index %d", i, resp.Index)
		}
		if resp.CertError != "" {
			p.failed++
		}
		if resp.Accepted {
			p.accepted++
		}
		resps[i] = resp
		p.outcome = append(p.outcome, responseKey(resp))
	}
	p.wall = time.Since(begin)

	// Gate: the committed snapshot passes the independent certificate.
	inst, mapping, sol := solver.Snapshot()
	if len(inst.Reqs) != n-countNil(resps) {
		return p, breachf("snapshot holds %d requests, %d were decided", len(inst.Reqs), n-countNil(resps))
	}
	if err := certifySnapshot(inst, mapping, sol); err != nil {
		return p, err
	}
	if tr != nil {
		if err := a.directReplay(ctx, tr, p, resps); err != nil {
			return p, err
		}
	}
	return p, nil
}

// certifySnapshot runs the access-control solution certificate, with the
// node mapping, on a committed snapshot.
func certifySnapshot(inst *tvnep.Instance, mapping tvnep.NodeMapping, sol *tvnep.Solution) error {
	rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	if err := rep.Err(); err != nil {
		return breachf("committed snapshot fails its certificate: %v", err)
	}
	return nil
}

// directReplay admits the same trace through Solver.Admit with a span per
// call, checks that every decision equals the HTTP one bit for bit, and
// derives the service and engine per-layer metrics.
func (a *admitHTTP) directReplay(ctx context.Context, tr *tracer, p *passResult, resps []*tvnep.AdmitResponse) error {
	direct, err := a.newSolver()
	if err != nil {
		return err
	}
	n := len(a.sc.Requests)
	decs := make([]tvnep.Decision, n)
	for i, r := range a.sc.Requests {
		id := tr.begin("tvnep.Admit", i, -1)
		d, err := direct.Admit(ctx, r, a.sc.Mapping[i])
		tr.end(id)
		if err != nil {
			return breachf("direct admit %d: %v", i, err)
		}
		decs[i] = d
	}
	admitSpans := tr.byOp("tvnep.Admit")
	engine := make([]float64, n)
	for i := range engine {
		engine[i] = ms(admitSpans[i])
	}
	for i, d := range decs {
		if resps[i] == nil {
			return breachf("decision %d failed over HTTP but not directly", i)
		}
		if got, want := decisionKey(d), responseKey(resps[i]); got != want {
			return breachf("decision %d differs between HTTP and direct replay:\n  http   %s\n  direct %s", i, want, got)
		}
	}
	_, _, viaHTTP := a.solver.Snapshot()
	_, _, viaDirect := direct.Snapshot()
	if err := sameSolution(viaHTTP, viaDirect); err != nil {
		return err
	}

	l := map[string]float64{}
	// Solver.Admit runs inside the service, out of the benchmark's reach;
	// the engine's own latency report stands in for its span.
	var handlerSelf []float64
	for op, h := range tr.byOp("tvnep.ServeHTTP") {
		handlerSelf = append(handlerSelf, ms(h)-float64(resps[op].LatencyNS)/1e6)
	}
	l["tvnep.handler_self_ms"] = mean(handlerSelf)
	l["admit.engine_p50_ms"] = quantile(engine, 0.5)
	l["admit.engine_p99_ms"] = quantile(engine, 0.99)
	l["admit.engine_q1_p50_ms"] = quantile(engine[:n/4], 0.5)
	l["admit.engine_q4_p50_ms"] = quantile(engine[n-n/4:], 0.5)
	tiers := map[tvnep.Tier][]float64{}
	var iters, nodes, active, downgrades float64
	for i, d := range decs {
		tiers[d.Stats.Tier] = append(tiers[d.Stats.Tier], engine[i])
		iters += float64(d.Stats.LPIterations)
		nodes += float64(d.Stats.Nodes)
		active += float64(d.Stats.ActiveSet)
		if d.CertErr != nil {
			downgrades++
		}
	}
	fn := float64(n)
	l["admit.tier_precheck_share"] = float64(len(tiers[tvnep.TierPrecheck])) / fn
	l["admit.tier_lp_share"] = float64(len(tiers[tvnep.TierLP])) / fn
	l["admit.tier_mip_share"] = float64(len(tiers[tvnep.TierMIP])) / fn
	l["admit.lp_tier_p50_ms"] = quantile(tiers[tvnep.TierLP], 0.5)
	l["admit.mip_tier_p50_ms"] = quantile(tiers[tvnep.TierMIP], 0.5)
	l["admit.lp_iters_per_op"] = iters / fn
	l["admit.bb_nodes_per_op"] = nodes / fn
	l["admit.warm_rate"] = direct.EngineStats().WarmRate()
	l["admit.active_set_mean"] = active / fn
	l["admit.cert_downgrades"] = downgrades
	p.layer = l
	return nil
}

// responseKey and decisionKey render every deterministic field of a
// decision (floats by their bits) so HTTP and direct replays compare
// exactly.
func responseKey(r *tvnep.AdmitResponse) string {
	return fmt.Sprintf("%d %s acc=%v start=%x end=%x hosts=%v tier=%s iters=%d nodes=%d warm=%v ext=%v cert=%q",
		r.Index, r.Name, r.Accepted, math.Float64bits(r.Start), math.Float64bits(r.End), r.Hosts,
		r.Tier, r.LPIterations, r.Nodes, r.WarmUsed, r.BasisExtended, r.CertError)
}

func decisionKey(d tvnep.Decision) string {
	cert := ""
	if d.CertErr != nil {
		cert = d.CertErr.Error()
	}
	return responseKey(&tvnep.AdmitResponse{
		Index: d.Index, Name: d.Name, Accepted: d.Accepted, Start: d.Start, End: d.End,
		Hosts: d.Hosts, Tier: d.Stats.Tier, LPIterations: d.Stats.LPIterations, Nodes: d.Stats.Nodes,
		WarmUsed: d.Stats.WarmUsed, BasisExtended: d.Stats.BasisExtended, CertError: cert,
	})
}

// sameSolution compares two committed solutions bit for bit.
func sameSolution(a, b *tvnep.Solution) error {
	ka, kb := fmt.Sprintf("%v %v %v %v", a.Accepted, a.Hosts, bitsOf(a.Start), bitsOf(a.End)),
		fmt.Sprintf("%v %v %v %v", b.Accepted, b.Hosts, bitsOf(b.Start), bitsOf(b.End))
	if ka != kb {
		return breachf("HTTP and direct replays committed different schedules")
	}
	if len(a.Flows) != len(b.Flows) {
		return breachf("HTTP and direct replays committed %d vs %d flow sets", len(a.Flows), len(b.Flows))
	}
	for r := range a.Flows {
		if fmt.Sprint(flowBits(a.Flows[r])) != fmt.Sprint(flowBits(b.Flows[r])) {
			return breachf("HTTP and direct replays committed different flows for request %d", r)
		}
	}
	return nil
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func flowBits(f [][]float64) [][]uint64 {
	out := make([][]uint64, len(f))
	for i, row := range f {
		out[i] = bitsOf(row)
	}
	return out
}

func countNil(rs []*tvnep.AdmitResponse) int {
	n := 0
	for _, r := range rs {
		if r == nil {
			n++
		}
	}
	return n
}
