package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric with its unit and direction.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of the timed run (--trace 0) that every
// workload reports; BENCHMARK.json lists exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// quality are the end-to-end metrics that exist on some workloads only.
// The timed run prints each one its workload defines, by name, unit and
// direction, next to the endToEnd set; they stay out of the final JSON
// line, whose metrics must exist (and be nonzero) on every workload.
var quality = []metricDef{
	{"op_p99_ms", "ms", "lower"},
	{"fail_rate", "ratio", "lower"},
	{"accept_rate", "ratio", "higher"},
	{"optimal_share", "ratio", "higher"},
	{"obj_ratio", "ratio", "higher"},
}

// perLayer are the metrics of the traced run (--trace 1). A layer that a
// workload never calls reports 0. Times are self times: a span's duration
// minus the part its child spans cover, as a mean per op unless the name
// says p50/p99.
var perLayer = []metricDef{
	{"tvnep.client_self_ms", "ms", "lower"},
	{"tvnep.handler_self_ms", "ms", "lower"},
	{"admit.engine_p50_ms", "ms", "lower"},
	{"admit.engine_p99_ms", "ms", "lower"},
	{"admit.engine_q1_p50_ms", "ms", "lower"},
	{"admit.engine_q4_p50_ms", "ms", "lower"},
	{"admit.tier_precheck_share", "ratio", "lower"},
	{"admit.tier_lp_share", "ratio", "higher"},
	{"admit.tier_mip_share", "ratio", "lower"},
	{"admit.lp_tier_p50_ms", "ms", "lower"},
	{"admit.mip_tier_p50_ms", "ms", "lower"},
	{"admit.lp_iters_per_op", "count", "lower"},
	{"admit.bb_nodes_per_op", "count", "lower"},
	{"admit.warm_rate", "ratio", "higher"},
	{"admit.active_set_mean", "count", "lower"},
	{"admit.cert_downgrades", "count", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.extract_ms", "ms", "lower"},
	{"core.vars", "count", "lower"},
	{"core.rows", "count", "lower"},
	{"lp.instance_ms", "ms", "lower"},
	{"lp.root_ms", "ms", "lower"},
	{"lp.root_iters", "count", "lower"},
	{"lp.iters_per_node", "count", "lower"},
	{"lp.bound_flips_per_op", "count", "higher"},
	{"lp.ratio_passes_per_op", "count", "lower"},
	{"mip.solve_ms", "ms", "lower"},
	{"mip.nodes_per_op", "count", "lower"},
	{"mip.cut_rows_root", "count", "lower"},
	{"mip.cols_root", "count", "lower"},
	{"mip.cols_priced", "count", "lower"},
	{"mip.col_rounds", "count", "lower"},
	{"mip.col_pool_hits", "count", "higher"},
	{"round.solve_ms", "ms", "lower"},
	{"round.self_ms", "ms", "lower"},
	{"round.samples", "count", "lower"},
	{"round.feasible_share", "ratio", "higher"},
	{"round.repairs", "count", "lower"},
	{"round.fallback_rate", "ratio", "lower"},
	{"certify.solution_ms", "ms", "lower"},
	{"certify.cuts_ms", "ms", "lower"},
	{"certify.columns_ms", "ms", "lower"},
	{"certify.root_lp_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"trace.op_p50_overhead", "ratio", "lower"},
	{"trace.ops_per_s_overhead", "ratio", "lower"},
}

// spanLayers maps a span name to the per-layer metric that reports its
// mean self time per op.
var spanLayers = []struct{ span, metric string }{
	{"http.RoundTrip", "tvnep.client_self_ms"},
	{"core.Build", "core.build_ms"},
	{"core.Extract", "core.extract_ms"},
	{"lp.NewInstance", "lp.instance_ms"},
	{"model.Relax", "lp.root_ms"},
	{"core.Solve", "mip.solve_ms"},
	{"round.Solve", "round.solve_ms"},
	{"certify.Solution", "certify.solution_ms"},
	{"certify.Cuts", "certify.cuts_ms"},
	{"certify.Columns", "certify.columns_ms"},
	{"certify.LP", "certify.root_lp_ms"},
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// hdMedian is the Harrell–Davis estimate of the median: a mean of all
// order statistics weighted by the Beta((n+1)/2, (n+1)/2) mass of each
// rank's interval. Unlike the sample median it moves smoothly when noise
// reorders the samples next to the middle, which matters where ops are
// few and far apart in latency (the exact-grid sweep spans 1 ms to 6 s).
func hdMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a := float64(n+1) / 2
	lgA, _ := math.Lgamma(a)
	lgAB, _ := math.Lgamma(2 * a)
	logB := 2*lgA - lgAB
	dens := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*(math.Log(x)+math.Log1p(-x)) - logB)
	}
	const m = 16 // Simpson subintervals per rank interval
	h := 1 / float64(n*m)
	var total, est float64
	for i, x := range s {
		lo := float64(i) / float64(n)
		w := dens(lo) + dens(lo+float64(m)*h)
		for k := 1; k < m; k++ {
			c := 2.0
			if k%2 == 1 {
				c = 4
			}
			w += c * dens(lo+float64(k)*h)
		}
		total += w
		est += w * x
	}
	return est / total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the Go runtime counters the per-layer runtime
// metrics difference over an untraced pass.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		idleCPU:      s[4].Value.Float64(),
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
