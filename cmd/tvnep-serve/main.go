// Command tvnep-serve runs the online admission service: a long-running
// HTTP/JSON server that receives VNet requests one at a time and decides
// each admission with the incremental cΣ engine (accepted schedules are
// committed and never change). It can also replay a scenario file offline
// (-replay) for benchmarking and CI smoke tests.
//
// Usage:
//
//	tvnep-serve -scenario scenario.json -addr :8080
//	tvnep-serve -rows 3 -cols 3 -nodecap 3.5 -linkcap 5 -horizon 48 -addr :8080
//	tvnep-serve -replay scenario.json -certify
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"tvnep/pkg/tvnep"
)

// Server timeouts bound how long a slow or idle client can hold a
// connection. There is deliberately no WriteTimeout: the node limit bounds
// an admission's work, not its wall-clock time, so a write deadline could
// cut off the response of a long MIP decision.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		scenFile = flag.String("scenario", "", "scenario JSON file supplying the substrate and horizon")
		replay   = flag.String("replay", "", "replay this scenario file through the engine and exit (no HTTP server)")
		rows     = flag.Int("rows", 3, "substrate grid rows (without -scenario)")
		cols     = flag.Int("cols", 3, "substrate grid cols (without -scenario)")
		nodeCap  = flag.Float64("nodecap", 3.5, "substrate node capacity (without -scenario)")
		linkCap  = flag.Float64("linkcap", 5, "substrate link capacity (without -scenario)")
		horizon  = flag.Float64("horizon", 48, "planning horizon T in hours (without -scenario)")
		cutMode  = flag.String("cutmode", "static", "Constraint-(20) cut pipeline: static | lazy | off")
		nodeLim  = flag.Int("nodelimit", 0, "branch-and-bound node budget per decision (0 → engine default; keeps replays deterministic)")
		workers  = flag.Int("workers", 1, "branch-and-bound workers per decision (decisions are bit-identical for every count)")
		algoName = flag.String("algorithm", "exact", "admission fast-tier mode: exact (LP → MIP) | rounding (LP → randomized rounding → MIP)")
		seed     = flag.Int64("seed", 0, "seed for the rounding tier's sampler (replays are bit-identical per seed)")
		certify  = flag.Bool("certify", false, "independently certify every accepting decision before committing it")
		reopt    = flag.Int("reopt", 0, "re-optimize committed link allocations after every n-th acceptance (0 → never)")
		quiet    = flag.Bool("q", false, "suppress per-decision replay output")
	)
	flag.Parse()

	cm, err := tvnep.ParseCutMode(*cutMode)
	if err != nil {
		fail(err)
	}

	var sub *tvnep.Substrate
	var sc *tvnep.Scenario
	T := *horizon
	src := *scenFile
	if *replay != "" {
		src = *replay
	}
	if src != "" {
		data, err := os.ReadFile(src)
		if err != nil {
			fail(err)
		}
		sc = &tvnep.Scenario{}
		if err := json.Unmarshal(data, sc); err != nil {
			fail(err)
		}
		sub = sc.Substrate
		T = sc.Horizon
	} else {
		sub = tvnep.Grid(*rows, *cols, *nodeCap, *linkCap)
	}

	opts := []tvnep.Option{
		tvnep.WithHorizon(T),
		tvnep.WithCutMode(cm),
		tvnep.WithWorkers(*workers),
		tvnep.WithReoptEvery(*reopt),
	}
	switch *algoName {
	case "", "exact":
	case "rounding":
		opts = append(opts, tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithSeed(*seed))
	default:
		fail(fmt.Errorf("unknown algorithm %q (want exact or rounding)", *algoName))
	}
	if *nodeLim > 0 {
		opts = append(opts, tvnep.WithNodeLimit(*nodeLim))
	}
	if *certify {
		opts = append(opts, tvnep.WithCertify())
	}
	solver, err := tvnep.New(sub, opts...)
	if err != nil {
		fail(err)
	}

	if *replay != "" {
		os.Exit(runReplay(solver, sc, *quiet))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           tvnep.NewServer(solver),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck // best-effort drain on SIGINT
	}()
	fmt.Fprintf(os.Stderr, "tvnep-serve: listening on %s (horizon %.2f h, %d substrate nodes)\n",
		*addr, T, sub.NumNodes())
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
}

// runReplay streams every scenario request through the engine, prints the
// decisions and summary statistics, and re-certifies the committed snapshot
// independently. Non-zero exit on any error or certificate violation.
func runReplay(solver *tvnep.Solver, sc *tvnep.Scenario, quiet bool) int {
	if sc.Mapping == nil {
		fmt.Fprintln(os.Stderr, "tvnep-serve: replay scenario carries no node mapping")
		return 1
	}
	ctx := context.Background()
	for i, req := range sc.Requests {
		d, err := solver.Admit(ctx, req, sc.Mapping[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "tvnep-serve: admit %d (%s): %v\n", i, req.Name, err)
			return 1
		}
		if d.CertErr != nil {
			fmt.Fprintf(os.Stderr, "tvnep-serve: decision %d (%s) failed certification: %v\n",
				i, req.Name, d.CertErr)
			return 1
		}
		if !quiet {
			verdict := "reject"
			if d.Accepted {
				verdict = "accept"
			}
			fmt.Printf("%4d %-8s %-6s start=%8.3f end=%8.3f tier=%-8s lp_iters=%5d nodes=%5d warm=%v\n",
				d.Index, d.Name, verdict, d.Start, d.End, d.Stats.Tier,
				d.Stats.LPIterations, d.Stats.Nodes, d.Stats.WarmUsed)
		}
	}
	s := solver.EngineStats()
	fmt.Printf("decisions=%d accepted=%d (rate %.3f) tiers: precheck=%d lp=%d rounding=%d mip=%d\n",
		s.Decisions, s.Accepted, s.AcceptRate(), s.PrecheckTier, s.LPTier, s.RoundingTier, s.MIPTier)
	fmt.Printf("latency: p50=%v p99=%v   warm rate %.3f (%d/%d, %d LU extensions)   reopts=%d\n",
		s.LatencyP50, s.LatencyP99, s.WarmRate(), s.WarmUsed, s.WarmAttempts, s.BasisExtended, s.Reopts)

	// Final gate: the cumulative committed solution must pass the
	// independent checker, whatever the per-decision settings were.
	inst, _, sol := solver.Snapshot()
	if err := tvnep.CheckSolution(inst.Sub, inst.Reqs, sol); err != nil {
		fmt.Fprintf(os.Stderr, "tvnep-serve: committed snapshot failed verification: %v\n", err)
		return 1
	}
	fmt.Printf("snapshot: %d requests, objective %.4f, verified OK\n", len(inst.Reqs), sol.Objective)
	return 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tvnep-serve:", err)
	os.Exit(1)
}
