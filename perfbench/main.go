// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the solver stack from a single process, checks
// every output with the independent certifier, and prints each metric by
// name with its unit and direction. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 (the timed run) the metrics are the end-to-end set; with
// --trace 1 (the traced run) they are the per-layer set, computed from
// spans the benchmark records around its own calls into each module.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload admit-http --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupReps is how often the timed run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 9

// errBreach marks a correctness-gate failure: a wrong output, not a slow
// or failed op.
var errBreach = errors.New("correctness breach")

func breachf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", errBreach, fmt.Sprintf(format, args...))
}

// bench is one named workload: an input set the benchmark runs.
type bench interface {
	// setup generates the inputs, starts whatever the ops talk to, and runs
	// one warm-up op on a throwaway solver.
	setup() error
	// pass runs every op of the input set once and checks the outputs. A
	// nil tracer runs untraced. Errors wrapping errBreach are gate
	// failures; any other error aborts the run.
	pass(ctx context.Context, tr *tracer) (*passResult, error)
	// quality names the workload-specific quality metrics it defines.
	quality() []string
	// close stops everything setup started and waits for it.
	close()
}

// passResult is the outcome of one pass.
type passResult struct {
	wall     time.Duration // time spent in ops
	latMS    []float64     // per-op latency, in op order
	failed   int           // ops that failed (see the workload's definition)
	offered  int           // requests offered for embedding
	accepted int           // requests embedded
	optimal  int           // ops proved optimal
	objRatio []float64     // per-op certified objective / LP bound
	// outcome is a per-op fingerprint of every deterministic output;
	// passes over the same inputs must agree on it exactly.
	outcome []string
	// layer holds per-layer metrics that come from returned values or are
	// derived from the pass's spans (traced passes only).
	layer map[string]float64
}

func (p *passResult) ops() int { return len(p.latMS) }

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64, tiny bool) bench{
	"admit-http":  newAdmitHTTP,
	"exact-grid":  newExactGrid,
	"paper-round": newPaperRound,
	"wan-path":    newWANPath,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	spans    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the process exit code: 0 on
// success, 1 on a correctness breach or error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a few small ops (tests)")
	fs.StringVar(&o.spans, "spans", "", "traced run: write the spans here as JSON lines (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	mk, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	newW := func() bench { return mk(o.seed, o.tiny) }

	var rep *report
	var err error
	if o.trace {
		rep, err = tracedRun(newW, o, stdout)
	} else {
		rep, err = timedRun(newW, o, stdout)
	}
	if err != nil && !errors.Is(err, errBreach) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		rep.Correct = false
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// timedRun is the untraced run: set-up several times, then whole passes
// while they fit the budget (at least one).
func timedRun(newW func() bench, o options, out io.Writer) (*report, error) {
	var w bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = newW()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	ctx := context.Background()
	budget := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	var passes []*passResult
	var breach error
	for {
		p, err := w.pass(ctx, nil)
		if err != nil {
			if !errors.Is(err, errBreach) {
				return nil, err
			}
			passes, breach = append(passes, p), err
			break
		}
		passes = append(passes, p)
		if err := sameOutcome(passes[0], p); err != nil {
			breach = err
			break
		}
		// Another pass starts only if it fits the budget whole: a pass is
		// the unit of work, and a partial one would weight its ops unevenly.
		if time.Since(begin)+p.wall > budget {
			break
		}
	}
	all, npasses := merge(passes), len(passes)
	// The live heap is the program's: drop the benchmark's own per-op
	// bookkeeping, whose size depends on the pass count, before measuring.
	passes = nil
	runtime.GC()
	heap := liveHeapMB()
	runtime.KeepAlive(w)

	vals := map[string]float64{
		"setup_s":      quantile(setups, 0.5),
		"ops_per_s":    float64(all.ops()) / all.wall.Seconds(),
		"op_p50_ms":    hdMedian(all.latMS),
		"live_heap_mb": heap,
	}
	qvals := qualityValues(all)
	fmt.Fprintf(out, "# workload %s seed %d: %d passes, %d ops in %.3f s\n",
		o.workload, o.seed, npasses, all.ops(), all.wall.Seconds())
	rep := &report{Correct: breach == nil, Attempted: all.ops(), Failed: all.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		printMetric(out, m, vals[m.Name])
		rep.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	defined := map[string]bool{}
	for _, n := range w.quality() {
		defined[n] = true
	}
	for _, m := range quality {
		if defined[m.Name] {
			printMetric(out, m, qvals[m.Name])
		}
	}
	return rep, breach
}

// tracedRun is the per-layer run: one untraced pass (the overhead
// baseline, which also yields the runtime counters) and one traced pass
// over the same inputs.
func tracedRun(newW func() bench, o options, out io.Writer) (*report, error) {
	w := newW()
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ctx := context.Background()

	runtime.GC()
	r0 := readRuntime()
	a, err := w.pass(ctx, nil)
	r1 := readRuntime()
	if err != nil {
		return abortedReport(a, err)
	}
	tr := newTracer()
	b, err := w.pass(ctx, tr)
	if err != nil {
		return abortedReport(b, err)
	}
	breach := sameOutcome(a, b)

	vals := map[string]float64{}
	for k, v := range b.layer {
		vals[k] = v
	}
	self := tr.selfByName()
	for _, sl := range spanLayers {
		vals[sl.metric] = ms(self[sl.span]) / float64(b.ops())
	}
	nA := float64(a.ops())
	vals["runtime.allocs_per_op"] = float64(r1.allocObjects-r0.allocObjects) / nA
	vals["runtime.bytes_per_op"] = float64(r1.allocBytes-r0.allocBytes) / nA
	vals["runtime.gc_cpu_share"] = ratio(r1.gcCPU-r0.gcCPU, (r1.totalCPU-r0.totalCPU)-(r1.idleCPU-r0.idleCPU))
	vals["trace.op_p50_overhead"] = ratio(hdMedian(b.latMS), hdMedian(a.latMS)) - 1
	opsA := nA / a.wall.Seconds()
	opsB := float64(b.ops()) / b.wall.Seconds()
	vals["trace.ops_per_s_overhead"] = ratio(opsA, opsB) - 1

	fmt.Fprintf(out, "# workload %s seed %d traced: %d ops untraced in %.3f s, %d ops traced in %.3f s, %d spans\n",
		o.workload, o.seed, a.ops(), a.wall.Seconds(), b.ops(), b.wall.Seconds(), len(tr.spans))
	rep := &report{Correct: breach == nil, Attempted: a.ops() + b.ops(), Failed: a.failed + b.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		printMetric(out, m, vals[m.Name])
		rep.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans written to %s\n", o.spans)
	return rep, breach
}

// abortedReport is the result of a traced run that a pass ended early: a
// breach still yields a result line (correct=false), any other error none.
func abortedReport(p *passResult, err error) (*report, error) {
	if !errors.Is(err, errBreach) {
		return nil, err
	}
	return &report{Attempted: p.ops(), Failed: p.failed, Metrics: map[string]metricValue{}}, err
}

// qualityValues computes the workload-specific end-to-end metrics.
func qualityValues(p *passResult) map[string]float64 {
	n := float64(p.ops())
	return map[string]float64{
		"op_p99_ms":     quantile(p.latMS, 0.99),
		"fail_rate":     float64(p.failed) / n,
		"accept_rate":   ratio(float64(p.accepted), float64(p.offered)),
		"optimal_share": float64(p.optimal) / n,
		"obj_ratio":     mean(p.objRatio),
	}
}

func printMetric(out io.Writer, m metricDef, v float64) {
	fmt.Fprintf(out, "%-28s %14s %-6s (%s is better)\n", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit, m.Better)
}

// merge concatenates passes into one result.
func merge(ps []*passResult) *passResult {
	out := &passResult{}
	for _, p := range ps {
		out.wall += p.wall
		out.latMS = append(out.latMS, p.latMS...)
		out.failed += p.failed
		out.offered += p.offered
		out.accepted += p.accepted
		out.optimal += p.optimal
		out.objRatio = append(out.objRatio, p.objRatio...)
	}
	return out
}

// sameOutcome checks that two passes over the same inputs produced the
// same deterministic outputs, op by op.
func sameOutcome(a, b *passResult) error {
	if len(a.outcome) != len(b.outcome) {
		return breachf("passes differ in op count: %d vs %d", len(a.outcome), len(b.outcome))
	}
	for i := range a.outcome {
		if a.outcome[i] != b.outcome[i] {
			return breachf("op %d differs between passes:\n  %s\n  %s", i, a.outcome[i], b.outcome[i])
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
