package tvnep

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/workload"
)

// AdmitRequest is the POST /v1/admit request body.
type AdmitRequest struct {
	// Request is the arriving VNet request in wire form.
	Request RequestWire `json:"request"`
	// Mapping pins each virtual node to a substrate node.
	Mapping []int `json:"mapping"`
}

// AdmitResponse is the POST /v1/admit response body.
type AdmitResponse struct {
	Index         int     `json:"index"`
	Name          string  `json:"name"`
	Accepted      bool    `json:"accepted"`
	Start         float64 `json:"start"`
	End           float64 `json:"end"`
	Hosts         []int   `json:"hosts,omitempty"`
	Tier          Tier    `json:"tier"`
	LatencyNS     int64   `json:"latency_ns"`
	LPIterations  int     `json:"lp_iterations"`
	Nodes         int     `json:"nodes"`
	WarmUsed      bool    `json:"warm_used"`
	BasisExtended bool    `json:"basis_extended"`
	CertError     string  `json:"cert_error,omitempty"`
}

// StatsResponse is the GET /v1/stats response body.
type StatsResponse struct {
	Decisions     int     `json:"decisions"`
	Accepted      int     `json:"accepted"`
	Rejected      int     `json:"rejected"`
	AcceptRate    float64 `json:"accept_rate"`
	PrecheckTier  int     `json:"precheck_tier"`
	LPTier        int     `json:"lp_tier"`
	RoundingTier  int     `json:"rounding_tier"`
	MIPTier       int     `json:"mip_tier"`
	CertFailures  int     `json:"cert_failures"`
	Reopts        int     `json:"reopts"`
	TotalLPIters  int     `json:"total_lp_iterations"`
	TotalNodes    int     `json:"total_nodes"`
	WarmAttempts  int     `json:"warm_attempts"`
	WarmUsed      int     `json:"warm_used"`
	WarmRate      float64 `json:"warm_rate"`
	BasisExtended int     `json:"basis_extended"`
	LatencyP50NS  int64   `json:"latency_p50_ns"`
	LatencyP99NS  int64   `json:"latency_p99_ns"`
}

// SolutionResponse is the GET /v1/solution response body: the instance
// streamed so far and the committed solution over it, re-certified on the
// way out.
type SolutionResponse struct {
	Horizon   float64       `json:"horizon"`
	Requests  []RequestWire `json:"requests"`
	Mapping   [][]int       `json:"mapping"`
	Accepted  []bool        `json:"accepted"`
	Start     []float64     `json:"start"`
	End       []float64     `json:"end"`
	Objective float64       `json:"objective"`
	// Certified reports that the snapshot passed the independent
	// certificate; Violations lists the named failures otherwise.
	Certified  bool     `json:"certified"`
	Violations []string `json:"violations,omitempty"`
}

// Server exposes a Solver's online admission engine over HTTP/JSON:
//
//	POST /v1/admit     {"request": {...}, "mapping": [...]} → decision
//	GET  /v1/solution  committed snapshot, independently certified
//	GET  /v1/stats     aggregate engine statistics
//	GET  /healthz      liveness probe
//
// The zero value is not useful; use NewServer. Server is an http.Handler.
type Server struct {
	solver *Solver
	mux    *http.ServeMux
}

// NewServer wraps a Solver (configured with WithHorizon for admission) into
// an HTTP handler.
func NewServer(s *Solver) *Server {
	sv := &Server{solver: s, mux: http.NewServeMux()}
	sv.mux.HandleFunc("/v1/admit", sv.handleAdmit)
	sv.mux.HandleFunc("/v1/solution", sv.handleSolution)
	sv.mux.HandleFunc("/v1/stats", sv.handleStats)
	sv.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return sv
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.mux.ServeHTTP(w, r) }

// maxBody bounds one admit request body; real requests are a few KB.
const maxBody = 1 << 20

func (sv *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var in AdmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req, err := in.Request.Decode()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, err := sv.solver.Admit(r.Context(), req, in.Mapping)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	out := AdmitResponse{
		Index:         d.Index,
		Name:          d.Name,
		Accepted:      d.Accepted,
		Start:         d.Start,
		End:           d.End,
		Hosts:         d.Hosts,
		Tier:          d.Stats.Tier,
		LatencyNS:     d.Stats.Latency.Nanoseconds(),
		LPIterations:  d.Stats.LPIterations,
		Nodes:         d.Stats.Nodes,
		WarmUsed:      d.Stats.WarmUsed,
		BasisExtended: d.Stats.BasisExtended,
	}
	if d.CertErr != nil {
		out.CertError = d.CertErr.Error()
	}
	writeJSON(w, out)
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s := sv.solver.EngineStats()
	writeJSON(w, StatsResponse{
		Decisions:     s.Decisions,
		Accepted:      s.Accepted,
		Rejected:      s.Rejected,
		AcceptRate:    s.AcceptRate(),
		PrecheckTier:  s.PrecheckTier,
		LPTier:        s.LPTier,
		RoundingTier:  s.RoundingTier,
		MIPTier:       s.MIPTier,
		CertFailures:  s.CertFailures,
		Reopts:        s.Reopts,
		TotalLPIters:  s.TotalLPIters,
		TotalNodes:    s.TotalNodes,
		WarmAttempts:  s.WarmAttempts,
		WarmUsed:      s.WarmUsed,
		WarmRate:      s.WarmRate(),
		BasisExtended: s.BasisExtended,
		LatencyP50NS:  int64(s.LatencyP50 / time.Nanosecond),
		LatencyP99NS:  int64(s.LatencyP99 / time.Nanosecond),
	})
}

func (sv *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	inst, mapping, sol := sv.solver.Snapshot()
	out := SolutionResponse{
		Horizon:   inst.Horizon,
		Mapping:   mapping,
		Accepted:  sol.Accepted,
		Start:     sol.Start,
		End:       sol.End,
		Objective: sol.Objective,
	}
	for _, req := range inst.Reqs {
		out.Requests = append(out.Requests, workload.EncodeRequest(req))
	}
	rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	out.Certified = rep.OK()
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do beyond noting it in the log-free
		// server: the client sees a truncated body and a closed connection.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
