// Command soproc regenerates the thesis's tables and figures from the
// models and simulator in this repository.
//
// Usage:
//
//	soproc -list                 list experiment IDs
//	soproc -exp fig4.6           run one experiment
//	soproc -exp fig4.6 -format csv   ... as CSV (formats: table, csv;
//	                             anything else is a usage error, exit 2)
//	soproc -all                  run every experiment
//	soproc -all -parallel 8      ... on an 8-worker engine
//	soproc -all -timeout 2m      ... aborting after two minutes
//	soproc -all -peers a:8080,b:8080   ... sharded across a soprocd
//	                             cluster by configuration fingerprint
//	                             (internal/cluster); output is
//	                             byte-identical to a local run
//	soproc -all -store           persist every simulated result in the
//	                             .sostore/ log; a second -store run
//	                             serves entirely from disk (milliseconds,
//	                             byte-identical). -store-dir relocates
//	                             the log; -stats-json dumps the engine
//	                             and store counters for scripting
//	soproc -all -tier exact -calibration cal.json
//	                             tiered regeneration in exact mode: every
//	                             point takes the engine's memo, store,
//	                             cluster and simulator path, so output
//	                             stays byte-identical. After calibrate
//	                             -out cal.json -store, adding -store
//	                             serves the whole suite from disk
//	soproc -all -tier fast -calibration cal.json
//	                             ... serve certified interior points from
//	                             the analytic surrogate instead, even
//	                             when the store holds them (approximate,
//	                             explicitly opted in)
//	soproc -all -trace-level decisions -trace-out trace.jsonl
//	                             stream one JSON line per engine decision
//	                             (memo hit, store hit, remote, simulated,
//	                             eviction) to trace.jsonl — stderr when
//	                             -trace-out is empty. Stdout stays
//	                             byte-identical to an untraced run
//
// To serve the same experiments and ad-hoc sweeps over HTTP from a
// long-running process, see cmd/soprocd; its /v1/exp/{id} responses are
// byte-identical to this CLI's stdout for the same experiment and
// format.
//
// Experiments run on the parallel, memoizing engine (internal/exp):
// sweep points fan out across -parallel workers (default GOMAXPROCS)
// and identical configurations shared between figures are simulated
// once. Output is deterministic — independent of the worker count.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/figures"
	"scaleout/internal/store"
	"scaleout/internal/tier"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs")
	expID := flag.String("exp", "", "experiment ID to run (e.g. fig2.2, table3.2)")
	all := flag.Bool("all", false, "run every experiment")
	format := flag.String("format", "table", "output format: table | csv")
	parallel := flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort if regeneration exceeds this duration (0 = none)")
	verbose := flag.Bool("v", false, "report engine statistics on stderr")
	peers := flag.String("peers", "", "comma-separated soprocd replicas (host:port) to shard simulator points across")
	tierName := flag.String("tier", "off", "tiered evaluation: off | exact (genuine simulator results, byte-identical) | fast (surrogate for certified interior points)")
	calPath := flag.String("calibration", "", "calibration.json from cmd/calibrate (with -tier)")
	useStore := flag.Bool("store", false, "persist simulator results in -store-dir; a later run serves matching points from disk instead of re-simulating")
	storeDir := flag.String("store-dir", store.DefaultDir, "persistent result store directory (with -store)")
	statsJSON := flag.String("stats-json", "", "write engine and store statistics as JSON to this path after the run")
	traceLevel := flag.String("trace-level", "off", "decision tracing: off, or decisions to stream one JSON line per engine decision to -trace-out")
	traceOut := flag.String("trace-out", "", "decision-trace destination path (with -trace-level decisions; empty = stderr)")
	flag.Parse()
	if *traceLevel != "off" && *traceLevel != "decisions" {
		fmt.Fprintf(os.Stderr, "soproc: -trace-level must be off or decisions, got %q\n", *traceLevel)
		flag.Usage()
		os.Exit(2)
	}

	// An unknown -format must be a hard usage error, not a silent fall
	// back to table output.
	render, err := figures.Renderer(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soproc:", err)
		flag.Usage()
		os.Exit(2)
	}

	eng := exp.New(*parallel)
	if *traceLevel == "decisions" {
		flush, err := traceDecisions(eng, *traceOut)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := flush(); err != nil {
				fmt.Fprintln(os.Stderr, "soproc: trace:", err)
			}
		}()
	}
	var st *store.Store
	if *useStore {
		st, err = store.Open(*storeDir)
		if err != nil {
			fail(err)
		}
		defer st.Close()
		eng.SetStore(st)
	}
	var coord *cluster.Coordinator
	if *peers != "" {
		var err error
		coord, err = cluster.New(strings.Split(*peers, ","))
		if err != nil {
			fail(err)
		}
		eng.SetRoute(coord.Route)
	}
	ctx := exp.WithEngine(context.Background(), eng)
	var ev *tier.Evaluator
	if *tierName != "off" {
		mode, ok := tier.ParseMode(*tierName)
		if !ok {
			fmt.Fprintf(os.Stderr, "soproc: unknown -tier %q (want off, exact, or fast)\n", *tierName)
			flag.Usage()
			os.Exit(2)
		}
		var cal *tier.Calibration
		if *calPath != "" {
			cal, err = tier.Load(*calPath)
			if err != nil {
				fail(err)
			}
		}
		ev = tier.New(cal, mode)
		ctx = exp.WithTier(ctx, ev)
	} else if *calPath != "" {
		fmt.Fprintln(os.Stderr, "soproc: -calibration requires -tier exact or -tier fast")
		flag.Usage()
		os.Exit(2)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	switch {
	case *list:
		for _, id := range figures.IDs() {
			fmt.Println(id)
		}
		return
	case *all:
		tables, err := figures.RunAllContext(ctx)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			fmt.Println(render(t))
		}
	case *expID != "":
		t, err := figures.RunContext(ctx, *expID)
		if err != nil {
			fail(err)
		}
		fmt.Println(render(t))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, eng, st, coord); err != nil {
			fail(err)
		}
	}
	if *verbose {
		es := eng.Stats()
		fmt.Fprintf(os.Stderr, "soproc: %d workers, %d points simulated, %d served from memo, %d from store, %s\n",
			eng.Workers(), es.Misses, es.Hits, es.StoreHits, time.Since(start).Round(time.Millisecond))
		if st != nil {
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "soproc: store: %d entries (%d loaded), %d disk hits, %d appends, %d bytes\n",
				ss.Entries, ss.Loaded, ss.DiskHits, ss.Appends, ss.Bytes)
		}
		if ev != nil {
			ts := ev.Stats()
			fmt.Fprintf(os.Stderr, "soproc: tier: %d scored, %d surrogate, %d escalated (rate %.3f)\n",
				ts.Scored, ts.SurrogateServed, ts.Escalated, ts.EscalationRate)
		}
		if coord != nil {
			cs := coord.Stats()
			fmt.Fprintf(os.Stderr, "soproc: cluster: %d routed in %d posts, %d failovers, %d rejects, %d local fallbacks, %d unroutable\n",
				cs.Routed, cs.Posts, cs.Failovers, cs.Rejects, cs.LocalFallbacks, cs.Unroutable)
			for _, p := range cs.Peers {
				fmt.Fprintf(os.Stderr, "soproc:   %s: %d points, %d failures\n", p.Addr, p.Sent, p.Failures)
			}
		}
	}
}

// writeStatsJSON dumps the run's engine (and, with -store, store; with
// -peers, cluster) counters as JSON — the machine-readable form CI
// asserts on: a disk-warm run must show engine.misses == 0 while
// store.disk_hits covers every simulator point, and a clustered run
// must show cluster.unroutable == 0 with engine.remote > 0 (every
// point representable on the wire and computed on a replica).
func writeStatsJSON(path string, eng *exp.Engine, st *store.Store, coord *cluster.Coordinator) error {
	es := eng.Stats()
	var dump struct {
		Engine struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			StoreHits int64 `json:"store_hits"`
			Remote    int64 `json:"remote"`
		} `json:"engine"`
		Store   *store.Stats   `json:"store,omitempty"`
		Cluster *cluster.Stats `json:"cluster,omitempty"`
	}
	dump.Engine.Hits = es.Hits
	dump.Engine.Misses = es.Misses
	dump.Engine.StoreHits = es.StoreHits
	dump.Engine.Remote = es.Remote
	if st != nil {
		ss := st.Stats()
		dump.Store = &ss
	}
	if coord != nil {
		cs := coord.Stats()
		dump.Cluster = &cs
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceDecisions streams every engine decision as one JSON line
// (exp.TraceRecord, keys condensed to fingerprints) to path —
// stderr when path is empty — and returns the flush-and-close
// function. Trace output never touches stdout, so a traced run's
// tables stay byte-identical to an untraced run's.
func traceDecisions(eng *exp.Engine, path string) (flush func() error, err error) {
	w := io.Writer(os.Stderr)
	var f *os.File
	if path != "" && path != "-" {
		f, err = os.Create(path)
		if err != nil {
			return nil, err
		}
		w = f
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var (
		mu  sync.Mutex
		seq uint64
	)
	eng.SetDecisionHook(func(d engine.Decision) {
		mu.Lock()
		defer mu.Unlock()
		seq++
		// Encode into the buffered writer only; a disk flush per point
		// would put file latency on the engine's resolution path.
		rec := exp.TraceRecord(d)
		rec.Seq, rec.UnixNanos = seq, time.Now().UnixNano()
		enc.Encode(rec)
	})
	return func() error {
		eng.SetDecisionHook(nil)
		mu.Lock()
		defer mu.Unlock()
		ferr := bw.Flush()
		if f != nil {
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		return ferr
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soproc:", err)
	os.Exit(1)
}
