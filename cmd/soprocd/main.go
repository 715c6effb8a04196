// Command soprocd serves the simulator over HTTP: a long-running
// process that runs named experiments and ad-hoc sweeps on one shared
// experiment engine, so concurrent clients exploring overlapping pod
// configurations hit a common memo instead of re-simulating.
//
// Usage:
//
//	soprocd                          listen on :8080
//	soprocd -addr 127.0.0.1:9090     custom listen address
//	soprocd -parallel 8              8-worker engine (default GOMAXPROCS)
//	soprocd -memo-cap 16384          memo capacity in entries (0 = unbounded)
//	soprocd -drain 1m                graceful-shutdown drain window
//	soprocd -peers host:a,host:b     coordinate: shard sweep points across
//	                                 those soprocd replicas by fingerprint
//	soprocd -calibration cal.json    load a cmd/calibrate error table:
//	                                 its certified regions answer
//	                                 tier:"fast" sweep requests from the
//	                                 surrogate (without it, fast requests
//	                                 escalate every point; exact requests
//	                                 and /v1/exp never use the table)
//	soprocd -store                   persist results in the .sostore/ log
//	                                 (-store-dir relocates it): a restart
//	                                 re-warms its shard from disk before
//	                                 taking traffic, the graceful drain
//	                                 flushes, and /statsz grows a "store"
//	                                 section
//	soprocd -rate 50 -burst 100      per-client admission rate in
//	                                 requests/sec with a token-bucket
//	                                 burst (0 = unlimited; clients keyed
//	                                 by X-Soproc-Client, else remote addr)
//	soprocd -queue-depth 64          waiting requests per priority lane
//	                                 once -max-inflight is reached; full
//	                                 lanes shed with 429 + Retry-After
//	                                 (0 = default 128, negative = none)
//	soprocd -max-inflight 32         concurrently admitted requests
//	                                 (0 = 4*GOMAXPROCS)
//	soprocd -request-timeout 5m      per-request deadline for admitted
//	                                 requests (0 = untimed)
//	soprocd -trace-level decisions   record a ring of per-point decision
//	                                 traces (source, replica, retries,
//	                                 queue wait, latency) served by
//	                                 GET /v1/trace; -trace-cap bounds the
//	                                 ring (default 4096)
//
// Endpoints (see internal/serve):
//
//	GET  /healthz              liveness probe
//	GET  /statsz               engine statistics: memo hits, misses,
//	                           evictions, resident size and capacity,
//	                           in-flight work, worker count
//	GET  /metricsz             Prometheus text-format metrics for every
//	                           active subsystem (engine, tier, server,
//	                           plus store/cluster/admit when enabled)
//	GET  /v1/trace             newest decision-trace records (JSON;
//	                           enabled:false without -trace-level)
//	GET  /v1/experiments       registered experiment IDs
//	GET  /v1/exp/{id}          one experiment (or "all"), format=table|csv;
//	                           byte-identical to the soproc CLI's output
//	POST /v1/sweep             batched ad-hoc sim/structural points
//
// With -peers, the daemon becomes a cluster coordinator
// (internal/cluster): each simulator point is consistent-hashed by its
// canonical fingerprint to the replica that owns it, points per replica
// are batched into forwarded /v1/sweep calls, a failed replica's shard
// re-hashes to the next owners, and /statsz grows a "cluster" section.
// Output stays byte-identical to single-node serving; see API.md and
// the DESIGN.md cluster section.
//
// Every request passes through an admission controller
// (internal/admit) before it reaches a handler: -max-inflight requests
// run at once, up to -queue-depth more wait per priority lane —
// interactive /v1/exp requests preempt bulk /v1/sweep work — and
// anything beyond that is shed immediately with 429 Too Many Requests
// and a Retry-After hint instead of queueing without bound. /statsz
// grows an "admit" section (admitted, shed, queue depths per lane).
//
// Unlike the one-shot CLIs, the daemon bounds its memo (-memo-cap):
// least-recently-used results are evicted under capacity pressure, so
// memory stays bounded over an unbounded request stream, while
// in-flight and waited-on entries are pinned and single-flight
// semantics are preserved. On SIGINT/SIGTERM the admission controller
// drains first — new and parked requests get 503 — then the server
// stops accepting, drains in-flight requests for up to -drain, and
// cancels whatever remains through the engine's context plumbing.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/serve"
	"scaleout/internal/store"
	"scaleout/internal/tier"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallel := flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	memoCap := flag.Int("memo-cap", 16384, "max resident memo entries (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight requests")
	peers := flag.String("peers", "", "comma-separated soprocd replicas (host:port) to shard sweep points across; empty = single node")
	calPath := flag.String("calibration", "", "calibration.json from cmd/calibrate: certified error regions for tier:\"fast\" sweeps")
	useStore := flag.Bool("store", false, "persist simulator results in -store-dir; a restarted daemon re-warms from the log before taking traffic")
	storeDir := flag.String("store-dir", store.DefaultDir, "persistent result store directory (with -store)")
	rate := flag.Float64("rate", 0, "per-client admission rate in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-client token-bucket burst (0 = derived from -rate)")
	queueDepth := flag.Int("queue-depth", 128, "waiting requests per priority lane once -max-inflight is reached; full lanes shed with 429 (0 = default 128, negative = no queue)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently admitted requests (0 = 4*GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline for admitted requests (0 = untimed)")
	traceLevel := flag.String("trace-level", "off", "decision tracing: off, or decisions to record per-point traces served by GET /v1/trace")
	traceCap := flag.Int("trace-cap", 0, "decision-trace ring capacity (0 = default 4096)")
	flag.Parse()
	switch *traceLevel {
	case "off", "decisions":
	default:
		log.Fatalf("soprocd: -trace-level must be off or decisions, got %q", *traceLevel)
	}

	eng := exp.NewBounded(*parallel, *memoCap)
	srv := serve.New(eng)
	obs := srv.EnableObservability(serve.ObservabilityOptions{
		TraceDecisions: *traceLevel == "decisions",
		TraceCapacity:  *traceCap,
	})
	var st *store.Store
	if *useStore {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			log.Fatalf("soprocd: %v", err)
		}
		eng.SetStore(st)
		srv.SetStoreStats(func() any { return st.Stats() })
		st.RegisterMetrics(obs.Registry)
		log.Printf("soprocd: store %s: %d results re-warmed from disk", *storeDir, st.Len())
	}
	if *calPath != "" {
		cal, err := tier.Load(*calPath)
		if err != nil {
			log.Fatalf("soprocd: %v", err)
		}
		srv.SetTier(tier.New(cal))
		log.Printf("soprocd: calibration %s: %d regions", *calPath, len(cal.Regions))
	}
	if *peers != "" {
		coord, err := cluster.New(strings.Split(*peers, ","))
		if err != nil {
			log.Fatalf("soprocd: %v", err)
		}
		eng.SetRoute(coord.Route)
		srv.SetClusterStats(func() any { return coord.Stats() })
		coord.RegisterMetrics(obs.Registry)
		log.Printf("soprocd: coordinating %d replicas: %s", len(strings.Split(*peers, ",")), *peers)
	}

	// Every request is admitted (or shed) before it reaches a handler;
	// /healthz, /statsz, /metricsz, and /v1/trace bypass admission so a
	// saturated daemon stays observable.
	ctrl := admit.New(admit.Options{
		Rate:           *rate,
		Burst:          *burst,
		MaxInFlight:    *maxInflight,
		QueueDepth:     *queueDepth,
		RequestTimeout: *requestTimeout,
	})
	srv.SetAdmitStats(func() any { return ctrl.Stats() })
	ctrl.RegisterMetrics(obs.Registry)

	// Request contexts derive from baseCtx; it stays live through the
	// drain window so in-flight sweeps finish, then cancels the rest.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Addr:        *addr,
		Handler:     ctrl.Middleware(srv.Handler()),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		// A stalled client must not pin a connection (and its
		// goroutine) forever; response writes are left untimed because
		// a long experiment legitimately streams late.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("soprocd: shutting down, draining for up to %s", *drain)
		// Refuse new and parked work first (503 "draining") so the
		// server's drain window is spent finishing what is already
		// running, not admitting more.
		ctrl.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("soprocd: drain window expired, cancelling in-flight work: %v", err)
		}
		cancelBase()
	}()

	log.Printf("soprocd: listening on %s (%d workers, memo capacity %d)",
		*addr, eng.Workers(), eng.MemoCapacity())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("soprocd: %v", err)
	}
	<-done
	if st != nil {
		// The drain window has passed: every result computed before
		// shutdown is in the log; sync it so the restart's warm start
		// sees all of them.
		ss := st.Stats()
		if err := st.Close(); err != nil {
			log.Printf("soprocd: store: %v", err)
		} else {
			log.Printf("soprocd: store flushed: %d entries (%d appended this run), %d bytes",
				ss.Entries, ss.Appends, ss.Bytes)
		}
	}
	es := eng.Stats()
	log.Printf("soprocd: served %d memo hits, %d computations, %d from store, %d evictions",
		es.Hits, es.Misses, es.StoreHits, es.Evictions)
}
