package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/round"
	"tvnep/internal/solution"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// solveKind selects one of the offline solve workloads.
type solveKind int

const (
	exactGrid solveKind = iota
	wanPath
	paperRound
)

// Node budgets: limits in nodes, not time, so every count repeats exactly.
const (
	// exactNodeLimit is far above the largest exact-grid or wan-path
	// search measured (a few thousand nodes); a solve that hits it counts
	// against optimal_share.
	exactNodeLimit = 20000
	// fallbackNodeLimit bounds the exact fallback of the rounding tier,
	// which at paper scale cannot finish even a few hundred nodes.
	fallbackNodeLimit = 20
)

// scenario is one solve op's input.
type scenario struct {
	name   string
	sc     *workload.Scenario
	inst   *core.Instance
	solver *tvnep.Solver
}

// solveBench runs certified offline solves through Solver.Solve, one op per
// scenario, serially, with one branch-and-bound worker.
type solveBench struct {
	kind  solveKind
	seed  int64
	tiny  bool
	scens []scenario
}

func newExactGrid(seed int64, tiny bool) bench {
	return &solveBench{kind: exactGrid, seed: seed, tiny: tiny}
}
func newWANPath(seed int64, tiny bool) bench {
	return &solveBench{kind: wanPath, seed: seed, tiny: tiny}
}
func newPaperRound(seed int64, tiny bool) bench {
	return &solveBench{kind: paperRound, seed: seed, tiny: tiny}
}

func (s *solveBench) quality() []string {
	if s.kind == paperRound {
		return []string{"fail_rate", "accept_rate", "obj_ratio"}
	}
	return []string{"fail_rate", "accept_rate", "optimal_share"}
}

func (s *solveBench) close() {}

// scenarioSet returns the workload's instance family. Every set is fixed:
// exact solve cost is heavy-tailed across scenario seeds (5-seed sets of
// the exact-grid sweep took 15 to 59 s, of the wan-path sweep 10 to 31 s,
// and one WAN set outgrew 7 GB of memory), which no run length here can
// average out. The seed instead permutes the op order of the exact
// workloads and draws the rounding tier's sample stream.
//
//   - exact-grid: the evaluation sweep at eval.Default scale (2×2 grid, 5
//     requests, 2-leaf stars), flexibility 0–300 min × scenario seeds 1–5.
//   - wan-path: 16-PoP Waxman WANs, 6 requests, 1-leaf stars, flexibility
//     0–300 min × scenario seeds 1–5, path-based link flows.
//   - paper-round: the paper's scale (4×5 grid, 20 requests, 5-node
//     stars), 4 h flexibility, scenario seeds 1–3.
func (s *solveBench) scenarioSet() (cfg workload.Config, flexMin []float64, seeds []int64) {
	flexMin = []float64{0, 60, 120, 180, 240, 300}
	switch s.kind {
	case exactGrid:
		cfg = workload.Default()
		cfg.GridRows, cfg.GridCols = 2, 2
		cfg.NumRequests = 5
		cfg.StarLeaves = 2
		seeds = []int64{1, 2, 3, 4, 5}
		if s.tiny {
			flexMin, seeds = []float64{0, 60}, []int64{1}
		}
	case wanPath:
		cfg = workload.Default()
		cfg.Topology = "wan"
		cfg.WANNodes = 16
		cfg.WANAvgDeg = 4
		cfg.NumRequests = 6
		cfg.StarLeaves = 1
		seeds = []int64{1, 2, 3, 4, 5}
		if s.tiny {
			cfg.WANNodes = 8
			cfg.NumRequests = 3
			flexMin, seeds = []float64{0, 60}, seeds[:1]
		}
	case paperRound:
		cfg = workload.PaperScale()
		flexMin = []float64{240}
		seeds = []int64{1, 2, 3}
		if s.tiny {
			cfg = workload.Default()
			cfg.GridRows, cfg.GridCols = 2, 2
			cfg.NumRequests = 5
			seeds = []int64{1}
		}
	}
	return cfg, flexMin, seeds
}

// options are the facade options of every solve.
func (s *solveBench) options() []tvnep.Option {
	opts := []tvnep.Option{tvnep.WithCertify(), tvnep.WithWorkers(1)}
	switch s.kind {
	case wanPath:
		opts = append(opts, tvnep.WithFlowMode(tvnep.FlowPath), tvnep.WithNodeLimit(exactNodeLimit))
	case paperRound:
		opts = append(opts, tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithSeed(s.seed), tvnep.WithNodeLimit(fallbackNodeLimit))
	default:
		opts = append(opts, tvnep.WithNodeLimit(exactNodeLimit))
	}
	return opts
}

// solveOptions mirror options() for the traced pipeline, which calls the
// layers directly instead of through the facade.
func (s *solveBench) solveOptions() model.SolveOptions {
	if s.kind == paperRound {
		return model.SolveOptions{Workers: 1, NodeLimit: fallbackNodeLimit, Seed: s.seed}
	}
	return model.SolveOptions{Workers: 1, NodeLimit: exactNodeLimit}
}

func (s *solveBench) buildOptions(sc *workload.Scenario) core.BuildOptions {
	o := core.BuildOptions{Objective: core.AccessControl, FixedMapping: sc.Mapping}
	if s.kind == wanPath {
		o.FlowMode = core.FlowPath
	}
	return o
}

func (s *solveBench) setup() error {
	cfg, flexMin, seeds := s.scenarioSet()
	s.scens = s.scens[:0]
	for _, f := range flexMin {
		for _, seed := range seeds {
			c := cfg
			c.FlexibilityHr = f / 60
			sc := workload.Generate(c, seed)
			solver, err := tvnep.New(sc.Substrate, s.options()...)
			if err != nil {
				return err
			}
			s.scens = append(s.scens, scenario{
				name:   fmt.Sprintf("flex=%g seed=%d", f, seed),
				sc:     sc,
				inst:   &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon},
				solver: solver,
			})
		}
	}
	// Warm-up op on a throwaway solver over the first, smallest-flexibility
	// instance (for rounding a small one: a paper-scale op takes seconds),
	// picked before the shuffle so set-up cost does not depend on the seed.
	warm := s.scens[0].sc
	if s.kind != paperRound {
		rng := rand.New(rand.NewSource(s.seed))
		rng.Shuffle(len(s.scens), func(i, j int) { s.scens[i], s.scens[j] = s.scens[j], s.scens[i] })
	} else {
		c := workload.Default()
		c.GridRows, c.GridCols = 2, 2
		c.NumRequests = 5
		c.FlexibilityHr = 1
		warm = workload.Generate(c, s.seed)
	}
	throwaway, err := tvnep.New(warm.Substrate, s.options()...)
	if err != nil {
		return err
	}
	if _, err := throwaway.Solve(context.Background(), warm.Requests, warm.Mapping); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// opOutcome is what one op returned, in the form both pipelines share.
type opOutcome struct {
	sol    *solution.Solution
	status model.Status
	nodes  int
	iters  int
	rs     *round.Stats // rounding statistics (paper-round)
	err    error
}

func (s *solveBench) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	p := &passResult{}
	acc := &solveLayers{}
	for op, sc := range s.scens {
		var out opOutcome
		var lat time.Duration
		if tr == nil {
			t0 := time.Now()
			out = s.facadeOp(ctx, sc)
			lat = time.Since(t0)
		} else {
			out, lat = s.tracedOp(ctx, tr, op, sc, acc)
		}
		p.wall += lat
		p.latMS = append(p.latMS, ms(lat))
		if err := s.record(p, sc, out); err != nil {
			return p, err
		}
	}
	if tr != nil {
		p.layer = acc.metrics(tr, len(s.scens))
	}
	return p, nil
}

// facadeOp is the timed op: one certified solve through Solver.Solve.
func (s *solveBench) facadeOp(ctx context.Context, sc scenario) opOutcome {
	res, err := sc.solver.Solve(ctx, sc.sc.Requests, sc.sc.Mapping)
	if err != nil {
		return opOutcome{err: err}
	}
	out := opOutcome{sol: res.Solution, status: res.Status, nodes: res.Nodes, iters: res.LPIterations, rs: res.Rounding}
	if c := res.Certificate; c == nil || c.Solution == nil || !c.Solution.OK() {
		out.err = &tvnep.CertificationError{Stage: "solution", Err: errors.New("certificate missing or failed")}
	}
	return out
}

// record checks one op's outcome and folds it into the pass.
func (s *solveBench) record(p *passResult, sc scenario, out opOutcome) error {
	if out.err != nil {
		p.failed++
		p.outcome = append(p.outcome, fmt.Sprintf("%s error: %v", sc.name, out.err))
		var ce *tvnep.CertificationError
		if errors.As(out.err, &ce) {
			return breachf("%s: %v", sc.name, out.err)
		}
		return nil
	}
	n := len(sc.sc.Requests)
	p.offered += n
	p.accepted += out.sol.NumAccepted()
	if out.status == model.StatusOptimal {
		p.optimal++
	}
	key := fmt.Sprintf("%s status=%v obj=%x nodes=%d iters=%d accepted=%v",
		sc.name, out.status, math.Float64bits(out.sol.Objective), out.nodes, out.iters, out.sol.Accepted)
	if s.kind == paperRound {
		bound := out.rs.LPBound
		if out.sol.Objective > bound+numtol.ObjTol*(1+math.Abs(bound)) {
			return breachf("%s: rounded objective %g exceeds the LP bound %g", sc.name, out.sol.Objective, bound)
		}
		p.objRatio = append(p.objRatio, out.sol.Objective/bound)
		key += fmt.Sprintf(" bound=%x samples=%d feasible=%d best=%d fellback=%v",
			math.Float64bits(bound), out.rs.Samples, out.rs.Feasible, out.rs.BestSample, out.rs.FellBack)
	}
	p.outcome = append(p.outcome, key)
	return nil
}

// tracedOp runs the facade's solve pipeline by calling each layer
// directly, with a span around every call. The op span covers exactly the
// facade's work; the probes after it (lp.NewInstance, Model.Relax,
// Built.Extract, and for rounding the build) time layers the facade only
// calls from inside another layer, on the same instance, outside the op.
func (s *solveBench) tracedOp(ctx context.Context, tr *tracer, op int, sc scenario, acc *solveLayers) (opOutcome, time.Duration) {
	inst, mapping := sc.inst, sc.sc.Mapping
	so := s.solveOptions()
	bo := s.buildOptions(sc.sc)
	var out opOutcome
	root := tr.begin("op", op, -1)
	var b *core.Built
	var ms *model.Solution
	if s.kind == paperRound {
		var st round.Stats
		tr.do("round.Solve", op, root, func() {
			out.sol, st, out.err = round.Solve(ctx, inst, mapping, round.Options{
				Seed: so.Seed, Objective: core.AccessControl, Solve: so,
			})
		})
		out.rs, out.iters, out.nodes = &st, st.LPIterations, st.FallbackNodes
		out.status = model.StatusFeasible
		if out.err == nil && out.sol == nil {
			out.err = tvnep.ErrNoSolution
		}
		if out.err == nil && out.sol.Optimal {
			out.status = model.StatusOptimal
		}
	} else {
		tr.do("core.Build", op, root, func() { b = core.Build(core.CSigma, inst, bo) })
		tr.do("core.Solve", op, root, func() { out.sol, ms = b.Solve(ctx, &so) })
		out.status, out.nodes, out.iters = ms.Status, ms.Nodes, ms.LPIterations
		if out.sol == nil {
			out.err = tvnep.ErrNoSolution
		}
	}
	if out.err == nil {
		out.err = s.tracedVerify(tr, op, root, inst, mapping, out.sol, b, ms)
	}
	tr.end(root)
	lat := tr.duration(root)

	probe := tr.begin("probe", op, -1)
	if b == nil {
		tr.do("core.Build", op, probe, func() { b = core.Build(core.CSigma, inst, bo) })
	}
	tr.do("lp.NewInstance", op, probe, func() { _ = lp.NewInstance(b.Model.LP()) })
	var rel *model.Solution
	tr.do("model.Relax", op, probe, func() { rel = b.Model.Relax() })
	if ms != nil {
		tr.do("core.Extract", op, probe, func() { _ = b.Extract(ms) })
	}
	tr.end(probe)
	acc.add(b, rel, ms, out.rs)
	return out, lat
}

// tracedVerify mirrors the facade's verification under WithCertify: the
// always-on feasibility check, then the solution certificate and, for
// exact solves, the applied-cut, priced-column and root-LP certificates.
func (s *solveBench) tracedVerify(tr *tracer, op, root int, inst *core.Instance, mapping tvnep.NodeMapping, sol *solution.Solution, b *core.Built, ms *model.Solution) error {
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		return &tvnep.CertificationError{Stage: "solution", Err: err}
	}
	var rep *certify.Report
	tr.do("certify.Solution", op, root, func() {
		rep = certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	})
	if err := rep.Err(); err != nil {
		return &tvnep.CertificationError{Stage: "solution", Err: err}
	}
	if b == nil {
		return nil
	}
	tr.do("certify.Cuts", op, root, func() { rep = certify.Cuts(b, ms) })
	if err := rep.Err(); err != nil {
		return &tvnep.CertificationError{Stage: "cuts", Err: err}
	}
	tr.do("certify.Columns", op, root, func() { rep = certify.Columns(b, ms) })
	if err := rep.Err(); err != nil {
		return &tvnep.CertificationError{Stage: "columns", Err: err}
	}
	var lc *certify.LPCertificate
	tr.do("certify.LP", op, root, func() {
		lpp := b.Model.LP()
		lc = certify.LP(lpp, lp.Solve(lpp, nil), 0)
	})
	if err := lc.Err(); err != nil {
		return &tvnep.CertificationError{Stage: "root-lp", Err: err}
	}
	return nil
}

// solveLayers accumulates per-layer counters from returned values over a
// traced pass.
type solveLayers struct {
	ops                                  int
	vars, rows                           int
	rootIters, iters, nodes, nodesOrRoot int
	flips, passes                        int
	cutRows, colsRoot, colsPriced        int
	colRounds, colPoolHits               int
	samples, feasible, repairs, fellBack int
	rounding                             bool
}

func (a *solveLayers) add(b *core.Built, rel, ms *model.Solution, rs *round.Stats) {
	a.ops++
	a.vars += b.Model.NumVars()
	a.rows += b.Model.NumConstrs()
	a.rootIters += rel.LPIterations
	switch {
	case rs != nil:
		a.rounding = true
		a.iters += rs.LPIterations
		a.nodes += rs.FallbackNodes
		a.nodesOrRoot += max(rs.FallbackNodes, 1)
		// round.Stats carries no kernel counters; the separately timed
		// root relaxation is the rounding tier's LP work.
		a.flips += rel.BoundFlips
		a.passes += rel.RatioPasses
		a.samples += rs.Samples
		a.feasible += rs.Feasible
		a.repairs += rs.Repairs
		if rs.FellBack {
			a.fellBack++
		}
	case ms != nil:
		a.iters += ms.LPIterations
		a.nodes += ms.Nodes
		a.nodesOrRoot += max(ms.Nodes, 1)
		a.flips += ms.BoundFlips
		a.passes += ms.RatioPasses
		a.cutRows += ms.Cuts.RowsAtRoot
		a.colsRoot += ms.Columns.ColsAtRoot
		a.colsPriced += ms.Columns.PricedCols
		a.colRounds += ms.Columns.Rounds
		a.colPoolHits += ms.Columns.PoolHits
	}
}

func (a *solveLayers) metrics(tr *tracer, ops int) map[string]float64 {
	n := float64(ops)
	per := func(x int) float64 { return float64(x) / n }
	l := map[string]float64{
		"core.vars":              per(a.vars),
		"core.rows":              per(a.rows),
		"lp.root_iters":          per(a.rootIters),
		"lp.iters_per_node":      ratio(float64(a.iters), float64(a.nodesOrRoot)),
		"mip.nodes_per_op":       per(a.nodes),
		"lp.bound_flips_per_op":  per(a.flips),
		"lp.ratio_passes_per_op": per(a.passes),
		"mip.cut_rows_root":      per(a.cutRows),
		"mip.cols_root":          per(a.colsRoot),
		"mip.cols_priced":        per(a.colsPriced),
		"mip.col_rounds":         per(a.colRounds),
		"mip.col_pool_hits":      per(a.colPoolHits),
	}
	if a.rounding {
		l["round.samples"] = per(a.samples)
		l["round.feasible_share"] = ratio(float64(a.feasible), float64(a.samples))
		l["round.repairs"] = per(a.repairs)
		l["round.fallback_rate"] = per(a.fellBack)
		self := tr.selfByName()
		l["round.self_ms"] = (ms(self["round.Solve"]) - ms(self["core.Build"]) - ms(self["model.Relax"])) / n
	}
	return l
}
