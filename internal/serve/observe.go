package serve

import (
	"net/http"
	"strconv"

	"scaleout/internal/exp"
	"scaleout/internal/metrics"
)

// ObservabilityOptions configures EnableObservability.
type ObservabilityOptions struct {
	// TraceDecisions enables the per-point decision ring served by
	// GET /v1/trace (soprocd -trace-level decisions). Metrics are
	// always on once EnableObservability is called; only the trace is
	// gated, because it is the one piece with per-request cost.
	TraceDecisions bool
	// TraceCapacity is the ring's retained-record count; <= 0 selects
	// the metrics.NewDecisionLog default (4096).
	TraceCapacity int
}

// Observability is the live instrumentation EnableObservability wires
// into a server: the registry behind GET /metricsz (cmd/soprocd
// registers its store, cluster, and admission metrics on it too) and
// the decision ring behind GET /v1/trace (nil unless TraceDecisions).
type Observability struct {
	Registry *metrics.Registry
	Trace    *metrics.DecisionLog
}

// EnableObservability builds the server's metrics registry — the
// engine, tier and server families declared on StatsResponse, plus the
// per-point latency histogram fed by the engine's decision hook — and
// mounts GET /metricsz and GET /v1/trace. Call exactly once, before
// serving and before SetTier swaps in a calibrated evaluator (the
// decision hook follows the swap, and the page reads the current
// evaluator at scrape time).
func (s *Server) EnableObservability(o ObservabilityOptions) *Observability {
	reg := metrics.NewRegistry()
	obs := &Observability{Registry: reg}
	if o.TraceDecisions {
		obs.Trace = metrics.NewDecisionLog(o.TraceCapacity)
	}
	s.obs = obs

	metrics.RegisterStats(reg, s.stats)
	hist := exp.NewPointLatencyHistogram(reg)
	exp.ObserveDecisions(s.eng, obs.Trace, hist)
	s.installTierHook()

	s.mux.Handle("GET /metricsz", reg.Handler())
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	return obs
}

// installTierHook points the current evaluator's decision hook at the
// trace ring, recording surrogate-served points — which never reach
// the engine — next to the engine's own records. SetTier re-installs
// it on the replacement evaluator.
func (s *Server) installTierHook() {
	if s.obs == nil || s.obs.Trace == nil {
		return
	}
	log := s.obs.Trace
	s.tier.SetDecisionHook(func(key, source string) {
		log.Add(metrics.Decision{Key: metrics.KeyFingerprint(key), Source: source})
	})
}

// TraceResponse is the GET /v1/trace body: the newest decision records
// in chronological order. Enabled is false when the daemon runs
// without -trace-level decisions — the endpoint still answers, so a
// prober can tell "tracing off" from "no traffic yet" (Total 0).
type TraceResponse struct {
	Enabled bool `json:"enabled"`
	// Capacity is the ring's retained-record bound; Total counts
	// records ever appended, so Total - Capacity (when positive) is
	// the history the ring has dropped.
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
	// Decisions are the newest records, oldest first; at most the n
	// query parameter (default 100, capped at Capacity).
	Decisions []metrics.Decision `json:"decisions"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	resp := TraceResponse{Decisions: []metrics.Decision{}}
	if s.obs == nil || s.obs.Trace == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	n := 100
	if arg := r.URL.Query().Get("n"); arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	log := s.obs.Trace
	resp.Enabled = true
	resp.Capacity = log.Capacity()
	resp.Total = log.Total()
	resp.Decisions = log.Last(n)
	writeJSON(w, http.StatusOK, resp)
}
