package solution

import (
	"fmt"
	"io"

	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// TimelineSegment describes substrate utilization during one interval in
// which allocations are constant.
type TimelineSegment struct {
	Start, End float64
	// NodeLoad[s] / LinkLoad[l] are absolute allocations.
	NodeLoad []float64
	LinkLoad []float64
	// Active lists the indices of requests running in the segment.
	Active []int
}

// PeakNodeUtil returns the maximum node utilization (load/capacity) of the
// segment, or 0 for an empty substrate.
func (seg *TimelineSegment) PeakNodeUtil(sub *substrate.Network) float64 {
	peak := 0.0
	for s, load := range seg.NodeLoad {
		if c := sub.NodeCap[s]; c > 0 {
			if u := load / c; u > peak {
				peak = u
			}
		}
	}
	return peak
}

// PeakLinkUtil returns the maximum link utilization of the segment.
func (seg *TimelineSegment) PeakLinkUtil(sub *substrate.Network) float64 {
	peak := 0.0
	for l, load := range seg.LinkLoad {
		if c := sub.LinkCap[l]; c > 0 {
			if u := load / c; u > peak {
				peak = u
			}
		}
	}
	return peak
}

// Timeline computes the piecewise-constant substrate utilization of a
// solution: one segment per interval that Sweep visits (the decomposition
// Definition 2.1's feasibility condition rests on). Only accepted requests
// whose embedding fits the instance contribute.
func Timeline(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) []TimelineSegment {
	var out []TimelineSegment
	Sweep(sub, reqs, sol, func(seg *TimelineSegment) bool {
		out = append(out, TimelineSegment{
			Start:    seg.Start,
			End:      seg.End,
			NodeLoad: append([]float64(nil), seg.NodeLoad...),
			LinkLoad: append([]float64(nil), seg.LinkLoad...),
			Active:   append([]int(nil), seg.Active...),
		})
		return true
	})
	return out
}

// WriteTimeline renders the timeline as an aligned text table (one row per
// segment) — a quick way to eyeball a schedule.
func WriteTimeline(w io.Writer, sub *substrate.Network, reqs []*vnet.Request, sol *Solution) {
	segs := Timeline(sub, reqs, sol)
	fmt.Fprintf(w, "%10s %10s %8s %14s %14s  %s\n",
		"start", "end", "active", "peak node util", "peak link util", "requests")
	for _, seg := range segs {
		names := make([]string, 0, len(seg.Active))
		for _, r := range seg.Active {
			names = append(names, reqs[r].Name)
		}
		fmt.Fprintf(w, "%10.3f %10.3f %8d %13.1f%% %13.1f%%  %v\n",
			seg.Start, seg.End, len(seg.Active),
			100*seg.PeakNodeUtil(sub), 100*seg.PeakLinkUtil(sub), names)
	}
}
