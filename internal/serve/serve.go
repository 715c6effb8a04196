// Package serve implements the soprocd HTTP/JSON service: the
// experiment engine behind a long-running endpoint, so many clients
// sweeping overlapping pod configurations share one worker pool and one
// bounded memo, and repeated design points become cache hits instead of
// simulations.
//
// Endpoints:
//
//	GET  /healthz              liveness probe ("ok")
//	GET  /statsz               engine statistics (memo hits/misses/
//	                           evictions, in-flight work, pool size)
//	GET  /v1/experiments       registered experiment IDs (JSON)
//	GET  /v1/exp/{id}          run one experiment; id "all" runs every
//	                           experiment in ID order. format=table|csv
//	                           selects the rendering; the body is
//	                           byte-identical to the soproc CLI's stdout
//	                           for the same experiment and format.
//	POST /v1/sweep             ad-hoc batched sweep: JSON points
//	                           (statistical or structural simulator)
//	                           fanned out across the worker pool,
//	                           results in input order.
//
// Every request runs on the server's engine via the same context
// plumbing the CLIs use: a disconnecting client cancels its points, and
// process shutdown drains in-flight work before cancelling the rest.
//
// The server itself admits everything; soprocd layers overload
// protection in front of it with internal/admit's middleware (rate
// limits, bounded queueing with 429 + Retry-After shedding, priority
// lanes, per-request deadlines), and the /statsz "admit" section
// reports what that middleware did (SetAdmitStats).
//
// The full HTTP contract — request and response JSON shapes with wire
// tags, error codes, limits, and drain semantics — is documented in
// API.md at the repository root; the coordinator protocol that shards
// /v1/sweep points across replicas is in internal/cluster and the
// DESIGN.md cluster section.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

// MaxSweepPoints bounds one /v1/sweep request; larger design-space
// scans should batch across requests so no single client can monopolize
// the pool's queue.
const MaxSweepPoints = 4096

// ForwardedHeader marks a /v1/sweep request that was already forwarded
// by a cluster coordinator. The serving replica disables routing for
// such a request (exp.DisableRouting), so work is forwarded at most one
// hop and a peer cycle cannot loop; see API.md.
const ForwardedHeader = "X-Soproc-Forwarded"

// Server routes the soprocd endpoints onto one experiment engine.
// Construct with New; the zero value is not usable.
type Server struct {
	eng   *exp.Engine
	mux   *http.ServeMux
	known map[string]bool // registered experiment IDs
	start time.Time

	// tier is the fast-tier evaluator that answers tier "fast" sweeps;
	// experiments and exact sweeps run on the bare engine. New installs
	// an uncalibrated evaluator, which escalates every point; SetTier
	// swaps in a calibrated one (soprocd -calibration).
	tier *tier.Evaluator

	// obs, if set (EnableObservability), is the live instrumentation
	// behind GET /metricsz and GET /v1/trace.
	obs *Observability

	// clusterStats, if set (SetClusterStats), supplies the /statsz
	// "cluster" section for a coordinator daemon.
	clusterStats func() any

	// storeStats, if set (SetStoreStats), supplies the /statsz "store"
	// section for a daemon running with a persistent result store.
	storeStats func() any

	// admitStats, if set (SetAdmitStats), supplies the /statsz "admit"
	// section for a daemon running behind an admission controller.
	admitStats func() any
}

// SetAdmitStats installs a snapshot hook whose value is reported as the
// /statsz "admit" section — soprocd wires admit.Controller.Stats here
// when admission control is enabled. Call before serving; a nil hook
// (the default) omits the section.
func (s *Server) SetAdmitStats(fn func() any) { s.admitStats = fn }

// SetStoreStats installs a snapshot hook whose value is reported as the
// /statsz "store" section — soprocd -store wires store.Store.Stats
// here. Call before serving; a nil hook (the default) omits the
// section.
func (s *Server) SetStoreStats(fn func() any) { s.storeStats = fn }

// SetClusterStats installs a snapshot hook whose value is reported as
// the /statsz "cluster" section — a coordinator daemon wires its
// cluster.Coordinator.Stats here. Call before serving; a nil hook (the
// default) omits the section.
func (s *Server) SetClusterStats(fn func() any) { s.clusterStats = fn }

// SetTier replaces the server's fast-tier evaluator — how soprocd
// installs one loaded with a calibration file. Call before serving; a
// nil ev restores the uncalibrated default. Only /v1/sweep requests
// with tier "fast" use it; /v1/exp and exact sweeps run on the engine.
func (s *Server) SetTier(ev *tier.Evaluator) {
	if ev == nil {
		ev = tier.New(nil)
	}
	s.tier = ev
	s.installTierHook()
}

// New returns a server running every request on eng (nil selects the
// process-wide default engine).
func New(eng *exp.Engine) *Server {
	if eng == nil {
		eng = exp.Default()
	}
	s := &Server{
		eng:   eng,
		mux:   http.NewServeMux(),
		known: make(map[string]bool),
		start: time.Now(),
		tier:  tier.New(nil),
	}
	for _, id := range figures.IDs() {
		s.known[id] = true
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/exp/{id}", s.handleExp)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// MemoStats is the memo section of the /statsz response.
type MemoStats struct {
	Hits      int64 `json:"hits" metric:"soproc_engine_memo_hits_total" help:"points served from the in-memory memo, including waits on in-flight duplicates"`
	Misses    int64 `json:"misses" metric:"soproc_engine_points_total" help:"points computed by this engine's local worker pool (memo misses)"`
	Evictions int64 `json:"evictions" metric:"soproc_engine_memo_evictions_total" help:"memo entries discarded to stay within capacity"`
	// StoreHits counts memo misses answered by the persistent result
	// store instead of the simulator; always 0 without -store.
	StoreHits int64 `json:"store_hits,omitempty" metric:"soproc_engine_store_hits_total" help:"memo misses answered by the persistent result store"`
	Size      int   `json:"size" metric:"soproc_engine_memo_entries" help:"resident memo entries"`
	Capacity  int   `json:"capacity" metric:"soproc_engine_memo_capacity_entries" help:"memo resident-entry bound (0 = unbounded)"`
}

// StatsResponse is the /statsz body. Remote counts points resolved on
// cluster replicas rather than the local pool; Cluster is the
// coordinator's per-replica routing snapshot (cluster.Stats) and is
// present only when this daemon runs with -peers. Its tags and those of
// MemoStats and tier.Stats declare the engine, server and tier families
// of /metricsz (metrics.RegisterStats); the Store, Cluster and Admit
// sections register their own.
type StatsResponse struct {
	Workers       int       `json:"workers" metric:"soproc_engine_worker_slots" help:"worker-pool size"`
	InFlight      int64     `json:"in_flight" metric:"soproc_engine_in_flight_points" help:"computations executing right now"`
	Remote        int64     `json:"remote" metric:"soproc_engine_remote_points_total" help:"points resolved by the installed router on a cluster replica"`
	Memo          MemoStats `json:"memo"`
	Experiments   int       `json:"experiments" metric:"soproc_server_experiments" help:"registered experiment IDs"`
	UptimeSeconds float64   `json:"uptime_seconds" metric:"soproc_server_uptime_seconds" help:"seconds since this server was constructed"`
	// Tier is the tiered evaluator's per-tier point counters and
	// escalation rate (tier.Stats).
	Tier tier.Stats `json:"tier"`
	// Store is the persistent result store's counter snapshot
	// (store.Stats); present only when the daemon runs with -store.
	Store   any `json:"store,omitempty"`
	Cluster any `json:"cluster,omitempty"`
	// Admit is the admission controller's counter snapshot
	// (admit.Stats); present only when the daemon runs behind
	// admit.Middleware.
	Admit any `json:"admit,omitempty"`
}

// stats snapshots the engine, tier and server counters: the /statsz
// body without its optional sections.
func (s *Server) stats() StatsResponse {
	st := s.eng.Stats()
	return StatsResponse{
		Workers:  s.eng.Workers(),
		InFlight: st.InFlight,
		Remote:   st.Remote,
		Memo: MemoStats{
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			StoreHits: st.StoreHits,
			Size:      st.MemoSize,
			Capacity:  st.MemoCapacity,
		},
		Experiments:   len(s.known),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Tier:          s.tier.Stats(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	resp := s.stats()
	if s.storeStats != nil {
		resp.Store = s.storeStats()
	}
	if s.clusterStats != nil {
		resp.Cluster = s.clusterStats()
	}
	if s.admitStats != nil {
		resp.Admit = s.admitStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// ExperimentsResponse is the /v1/experiments body.
type ExperimentsResponse struct {
	Experiments []string `json:"experiments"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ExperimentsResponse{Experiments: figures.IDs()})
}

func (s *Server) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "table"
	}
	// Reject unknown formats exactly as the soproc CLI does (same
	// validation, figures.Renderer), rather than silently falling back.
	render, err := figures.Renderer(format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if id != "all" && !s.known[id] {
		http.Error(w, fmt.Sprintf("unknown experiment %q (see /v1/experiments)", id), http.StatusNotFound)
		return
	}

	// Experiments always run on the bare engine: every value is a
	// genuine simulator result (from the memo, the store, a replica or
	// the simulator), so the body stays byte-identical to the CLI's.
	ctx := exp.WithEngine(r.Context(), s.eng)
	var tables []figures.Table
	if id == "all" {
		tables, err = figures.RunAllContext(ctx)
	} else {
		var t figures.Table
		t, err = figures.RunContext(ctx, id)
		tables = []figures.Table{t}
	}
	if err != nil {
		status := http.StatusInternalServerError
		if exp.IsCancellation(err) {
			// The client went away or the server is draining; the
			// engine has already withdrawn the unfinished points.
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}

	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	// One rendered table per line group with a trailing blank separator
	// — the same framing the CLI's fmt.Println produces, so a response
	// body diffs clean against `soproc -exp <id> -format <format>`.
	for _, t := range tables {
		io.WriteString(w, render(t))
		io.WriteString(w, "\n")
	}
}

// SweepPoint is one ad-hoc simulation request in a /v1/sweep batch, in
// one of two forms. The human-friendly short form names its workload
// and core type symbolically; the server resolves them against the
// calibrated models and applies the simulator's usual defaults. The
// complete form carries a versioned wire object (sim.WireConfig) in
// Config instead — every field the simulators consume, including
// interconnect and workload parameters the short form cannot express —
// and is what a cluster coordinator forwards. Either way the point is
// memoized by the same canonical fingerprint the experiment generators
// use, so a point shared with a figure sweep is a cache hit.
type SweepPoint struct {
	// Config, when present, is the complete wire-form configuration
	// (sim.WireConfig JSON, wire_version checked first); every symbolic
	// field below must then be unset. Build one with WirePoint.
	Config json.RawMessage `json:"config,omitempty"`

	// Kind selects the simulator: "sim" (statistical, the default) or
	// "structural".
	Kind string `json:"kind,omitempty"`

	// Workload is the CloudSuite workload name as in the thesis
	// figures, e.g. "Web Search" (see workload.Names).
	Workload string `json:"workload"`

	// Core is the core microarchitecture: "conventional", "ooo", or
	// "in-order".
	Core string `json:"core"`

	Cores int     `json:"cores"`
	LLCMB float64 `json:"llc_mb"`

	// Net names the interconnect: "ideal", "crossbar" (default),
	// "mesh", "flattened-butterfly", or "noc-out". LLCTiles and
	// LinkBits require an explicit Net (LLCTiles "noc-out" only);
	// on other nets they would be ignored by the simulator while
	// still splitting the memo fingerprint, so they are rejected.
	Net      string `json:"net,omitempty"`
	LLCTiles int    `json:"llc_tiles,omitempty"` // NOC-Out LLC tiles
	LinkBits int    `json:"link_bits,omitempty"` // link width override

	MemChannels   int    `json:"mem_channels,omitempty"`
	WarmupCycles  int    `json:"warmup_cycles,omitempty"`
	MeasureCycles int    `json:"measure_cycles,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`

	// DisableSWScaling applies to kind "sim" only.
	DisableSWScaling bool `json:"disable_sw_scaling,omitempty"`
	// L1MSHRs applies to kind "structural" only.
	L1MSHRs int `json:"l1_mshrs,omitempty"`
}

// SweepRequest is the /v1/sweep body. Tier selects the evaluation
// tier: "exact" (the default, also the empty string) answers every
// point with a genuine simulator result — from the memo or the
// persistent store when the fingerprint is there, otherwise simulated —
// while "fast" serves calibration-certified points from the analytic
// surrogate, tagged source:"surrogate" in the result. Unknown tier
// names are rejected with 400.
type SweepRequest struct {
	Tier   string       `json:"tier,omitempty"`
	Points []SweepPoint `json:"points"`
}

// WireVersionErrorResponse is the structured 400 body for a "config"
// wire object whose wire_version this daemon does not speak: the
// offending version, and the one supported here. A cluster coordinator
// keys on the wire_version field to classify the rejection as permanent
// (no retry, no markDown) rather than a replica failure.
type WireVersionErrorResponse struct {
	Error       string `json:"error"`
	WireVersion int    `json:"wire_version"`
	Supported   int    `json:"supported_wire_version"`
}

// SweepResult is one point's outcome, in input order; exactly one of
// Sim/Structural is set, matching the point's kind.
type SweepResult struct {
	Kind       string                `json:"kind"`
	Sim        *sim.Result           `json:"sim,omitempty"`
	Structural *sim.StructuralResult `json:"structural,omitempty"`
}

// SweepResponse is the /v1/sweep response body.
type SweepResponse struct {
	Results []SweepResult `json:"results"`
}

// maxSweepBody bounds the /v1/sweep request body: the decoder
// allocates the whole value before the point-count check can run, so
// the byte cap is what actually protects the daemon's memory. 8MB is
// ~2KB per point at MaxSweepPoints.
const maxSweepBody = 8 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// The cap fired before validation could: a structured 413
			// tells the client the body limit rather than a generic
			// decode failure.
			admit.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("sweep request body exceeds %d bytes", tooBig.Limit), 0)
			return
		}
		http.Error(w, "bad sweep request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Points) == 0 {
		http.Error(w, "sweep request has no points", http.StatusBadRequest)
		return
	}
	if len(req.Points) > MaxSweepPoints {
		http.Error(w, fmt.Sprintf("sweep request has %d points, max %d", len(req.Points), MaxSweepPoints),
			http.StatusBadRequest)
		return
	}

	mode, ok := tier.ParseMode(req.Tier)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tier %q (want exact or fast)", req.Tier), http.StatusBadRequest)
		return
	}

	// Group the points by simulator kind: each group is one batch, on
	// the engine for an exact request, or through the fast-tier
	// evaluator, which serves certified points from the surrogate and
	// escalates the rest to the engine.
	kinds := make([]string, len(req.Points))
	var simIdx []int
	var simCfgs []sim.Config
	var structIdx []int
	var structCfgs []sim.StructuralConfig
	for i, p := range req.Points {
		kind, cfg, err := p.config()
		if err != nil {
			var ve *sim.WireVersionError
			if errors.As(err, &ve) {
				// Version negotiation is structured so a coordinator can
				// tell "this replica does not speak my wire version"
				// (permanent, try another replica) from a transient
				// failure it should retry.
				writeJSON(w, http.StatusBadRequest, WireVersionErrorResponse{
					Error:       fmt.Sprintf("point %d: %v", i, err),
					WireVersion: ve.Version,
					Supported:   sim.WireVersion,
				})
				return
			}
			http.Error(w, fmt.Sprintf("point %d: %v", i, err), http.StatusBadRequest)
			return
		}
		kinds[i] = kind
		switch c := cfg.(type) {
		case sim.Config:
			simIdx = append(simIdx, i)
			simCfgs = append(simCfgs, c)
		case sim.StructuralConfig:
			structIdx = append(structIdx, i)
			structCfgs = append(structCfgs, c)
		}
	}

	ctx := exp.WithEngine(r.Context(), s.eng)
	if mode == tier.Fast {
		ctx = exp.WithTier(ctx, s.tier)
	}
	if r.Header.Get(ForwardedHeader) != "" {
		// Already forwarded once by a coordinator: compute here, never
		// re-route, so a peer cycle cannot bounce work forever.
		ctx = exp.DisableRouting(ctx)
	}

	resp := SweepResponse{Results: make([]SweepResult, len(req.Points))}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	if len(simCfgs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := exp.Sims(ctx, simCfgs)
			if err != nil {
				errs[0] = err
				return
			}
			for k, i := range simIdx {
				r := res[k]
				resp.Results[i].Sim = &r
			}
		}()
	}
	if len(structCfgs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := exp.Structurals(ctx, structCfgs)
			if err != nil {
				errs[1] = err
				return
			}
			for k, i := range structIdx {
				r := res[k]
				resp.Results[i].Structural = &r
			}
		}()
	}
	wg.Wait()
	if err := exp.FirstError(errs, nil); err != nil {
		status := http.StatusInternalServerError
		if exp.IsCancellation(err) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}

	for i := range resp.Results {
		resp.Results[i].Kind = kinds[i]
	}
	writeJSON(w, http.StatusOK, resp)
}

// WirePoint wraps a configuration's wire form in the SweepPoint that
// carries it — the complete-form request a cluster coordinator POSTs to
// a replica's /v1/sweep. Unlike the retired symbolic conversion, every
// valid configuration is representable; the only error source is JSON
// marshalling itself.
func WirePoint(wc sim.WireConfig) (SweepPoint, error) {
	raw, err := json.Marshal(wc)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Config: raw}, nil
}

// legacyEmpty reports whether every symbolic short-form field is unset,
// so a point carrying a "config" wire object is unambiguous.
func (p SweepPoint) legacyEmpty() bool {
	return p.Kind == "" && p.Workload == "" && p.Core == "" && p.Cores == 0 &&
		p.LLCMB == 0 && p.Net == "" && p.LLCTiles == 0 && p.LinkBits == 0 &&
		p.MemChannels == 0 && p.WarmupCycles == 0 && p.MeasureCycles == 0 &&
		p.Seed == 0 && !p.DisableSWScaling && p.L1MSHRs == 0
}

// config resolves the request into a validated simulator configuration
// — a sim.Config or sim.StructuralConfig matching kind. A "config"
// wire object is decoded with its version checked first
// (*sim.WireVersionError on mismatch); otherwise the symbolic short
// form is resolved against the calibrated models.
func (p SweepPoint) config() (kind string, cfg any, err error) {
	if len(p.Config) > 0 {
		if !p.legacyEmpty() {
			return "", nil, fmt.Errorf("config cannot be combined with the symbolic short-form fields")
		}
		wc, err := sim.UnmarshalWire(p.Config)
		if err != nil {
			return "", nil, err
		}
		c, err := wc.Decode()
		if err != nil {
			return "", nil, err
		}
		switch c.(type) {
		case sim.Config:
			return "sim", c, nil
		case sim.StructuralConfig:
			return "structural", c, nil
		default:
			return "", nil, fmt.Errorf("unsupported wire config type %T", c)
		}
	}
	w, ok := workload.ByName(p.Workload)
	if !ok {
		return "", nil, fmt.Errorf("unknown workload %q (want one of: %s)",
			p.Workload, strings.Join(workload.Names(), ", "))
	}
	core, err := tech.ParseCoreType(p.Core)
	if err != nil {
		return "", nil, err
	}
	net, err := p.net()
	if err != nil {
		return "", nil, err
	}
	switch p.Kind {
	case "", "sim":
		if p.L1MSHRs != 0 {
			return "", nil, fmt.Errorf("l1_mshrs applies to structural points only")
		}
		c := sim.Config{
			Workload: w, CoreType: core, Cores: p.Cores, LLCMB: p.LLCMB,
			Net: net, MemChannels: p.MemChannels,
			WarmupCycles: p.WarmupCycles, MeasureCycles: p.MeasureCycles,
			Seed: p.Seed, DisableSWScaling: p.DisableSWScaling,
		}
		if _, err := c.Canonical(); err != nil {
			return "", nil, err
		}
		return "sim", c, nil
	case "structural":
		if p.DisableSWScaling {
			return "", nil, fmt.Errorf("disable_sw_scaling applies to sim points only")
		}
		c := sim.StructuralConfig{
			Workload: w, CoreType: core, Cores: p.Cores, LLCMB: p.LLCMB,
			Net: net, MemChannels: p.MemChannels,
			WarmupCycles: p.WarmupCycles, MeasureCycles: p.MeasureCycles,
			Seed: p.Seed, L1MSHRs: p.L1MSHRs,
		}
		if _, err := c.Canonical(); err != nil {
			return "", nil, err
		}
		return "structural", c, nil
	default:
		return "", nil, fmt.Errorf("unknown kind %q (want sim or structural)", p.Kind)
	}
}

// net builds the point's interconnect. An empty name leaves the zero
// Config so the simulator applies its own crossbar default, keeping the
// fingerprint identical to a CLI sweep that did the same; overrides on
// a net that cannot use them are rejected rather than silently
// splitting the memo key.
func (p SweepPoint) net() (noc.Config, error) {
	if p.Net == "" {
		if p.LLCTiles != 0 || p.LinkBits != 0 {
			return noc.Config{}, fmt.Errorf("llc_tiles/link_bits require an explicit net")
		}
		return noc.Config{}, nil
	}
	kind, err := noc.ParseKind(p.Net)
	if err != nil {
		return noc.Config{}, err
	}
	if p.LLCTiles != 0 && kind != noc.NOCOut {
		return noc.Config{}, fmt.Errorf("llc_tiles applies to net \"noc-out\" only")
	}
	cfg := noc.New(kind, p.Cores)
	if p.LLCTiles > 0 {
		cfg.LLCTiles = p.LLCTiles
	}
	if p.LinkBits > 0 {
		cfg = cfg.WithLinkBits(p.LinkBits)
	}
	return cfg, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
