package serve_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
	"scaleout/internal/store"
)

// statszTwin maps every numeric (or boolean) /statsz leaf — dotted
// path, array indices and lane names collapsed to "*" — to the
// /metricsz family that carries the same number. This is the contract
// that keeps the two observability surfaces from drifting: a counter
// added to a Stats() snapshot without a metrics twin fails the test
// until it is either wired up or explicitly exempted with a reason.
var statszTwin = map[string]string{
	"workers":         "soproc_engine_worker_slots",
	"in_flight":       "soproc_engine_in_flight_points",
	"remote":          "soproc_engine_remote_points_total",
	"memo.hits":       "soproc_engine_memo_hits_total",
	"memo.misses":     "soproc_engine_points_total",
	"memo.evictions":  "soproc_engine_memo_evictions_total",
	"memo.store_hits": "soproc_engine_store_hits_total",
	"memo.size":       "soproc_engine_memo_entries",
	"memo.capacity":   "soproc_engine_memo_capacity_entries",
	"experiments":     "soproc_server_experiments",
	"uptime_seconds":  "soproc_server_uptime_seconds",

	"tier.scored":           "soproc_tier_scored_points_total",
	"tier.surrogate_served": "soproc_tier_surrogate_served_total",
	"tier.escalated":        "soproc_tier_escalated_points_total",
	"tier.regions":          "soproc_tier_regions",

	"store.loaded":      "soproc_store_loaded_records_total",
	"store.entries":     "soproc_store_entries",
	"store.disk_hits":   "soproc_store_disk_hits_total",
	"store.disk_misses": "soproc_store_disk_misses_total",
	"store.appends":     "soproc_store_appends_total",
	"store.compactions": "soproc_store_compactions_total",
	"store.bytes":       "soproc_store_log_bytes",
	"store.save_errors": "soproc_store_save_errors_total",

	"cluster.routed":           "soproc_cluster_routed_points_total",
	"cluster.failovers":        "soproc_cluster_failovers_total",
	"cluster.retries":          "soproc_cluster_retries_total",
	"cluster.busy":             "soproc_cluster_busy_total",
	"cluster.local_fallbacks":  "soproc_cluster_local_fallbacks_total",
	"cluster.unroutable":       "soproc_cluster_unroutable_total",
	"cluster.rejects":          "soproc_cluster_rejects_total",
	"cluster.posts":            "soproc_cluster_posts_total",
	"cluster.peers.*.sent":     "soproc_cluster_replica_sent_points_total",
	"cluster.peers.*.failures": "soproc_cluster_replica_failures_total",
	"cluster.peers.*.busy":     "soproc_cluster_replica_busy_total",
	"cluster.peers.*.probes":   "soproc_cluster_replica_probes_total",
	"cluster.peers.*.down":     "soproc_cluster_replica_down",

	"admit.admitted":         "soproc_admit_admitted_total",
	"admit.in_flight":        "soproc_admit_in_flight_requests",
	"admit.rate_limited":     "soproc_admit_rate_limited_total",
	"admit.shed_queue_full":  "soproc_admit_shed_queue_full_total",
	"admit.shed_draining":    "soproc_admit_shed_draining_total",
	"admit.abandoned":        "soproc_admit_abandoned_total",
	"admit.lanes.*.admitted": "soproc_admit_lane_admitted_total",
	"admit.lanes.*.queued":   "soproc_admit_lane_queued_total",
	"admit.lanes.*.depth":    "soproc_admit_lane_depth",
	"admit.clients":          "soproc_admit_clients",
	"admit.draining":         "soproc_admit_draining",
}

// statszExempt lists /statsz leaves that deliberately have no metrics
// twin, with the reason.
var statszExempt = map[string]string{
	"tier.escalation_rate": "derived ratio; compute from escalated/scored at query time",
}

// metricNamePattern is the repo's naming contract:
// soproc_<subsystem>_<name>, lower-snake.
var metricNamePattern = regexp.MustCompile(`^soproc_(engine|tier|server|store|cluster|admit)_[a-z0-9_]+$`)

// TestMetricsContract wires every subsystem into one server — engine
// with store, tiered evaluator, admission controller, and a (never
// routed) cluster coordinator — and holds /metricsz to its contracts:
// the page parses as strict Prometheus text, every family obeys the
// naming rules, and every /statsz leaf has its metrics twin present on
// the same scrape.
func TestMetricsContract(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	eng := exp.NewBounded(2, 64)
	eng.SetStore(st)
	srv := serve.New(eng)
	obs := srv.EnableObservability(serve.ObservabilityOptions{TraceDecisions: true})
	st.RegisterMetrics(obs.Registry)
	coord, err := cluster.New([]string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	coord.RegisterMetrics(obs.Registry)
	srv.SetClusterStats(func() any { return coord.Stats() })
	srv.SetStoreStats(func() any { return st.Stats() })
	ctrl := admit.New(admit.Options{MaxInFlight: 4})
	ctrl.RegisterMetrics(obs.Registry)
	srv.SetAdmitStats(func() any { return ctrl.Stats() })

	ts := httptest.NewServer(ctrl.Middleware(srv.Handler()))
	defer ts.Close()

	// Scrape and parse /metricsz.
	mres, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer mres.Body.Close()
	if ct := mres.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	page, err := io.ReadAll(mres.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(string(page))
	if err != nil {
		t.Fatalf("ParseText(/metricsz): %v\npage:\n%s", err, page)
	}

	// Naming contract.
	for name, fam := range fams {
		if !metricNamePattern.MatchString(name) {
			t.Errorf("family %q violates soproc_<subsystem>_<name> naming", name)
		}
		if fam.Kind == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q must end in _total", name)
		}
		if strings.TrimSpace(fam.Help) == "" {
			t.Errorf("family %q has no HELP text", name)
		}
	}

	// Flatten /statsz and cross-check the twin table.
	sres, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer sres.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(sres.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	leaves := map[string]bool{}
	flattenStatsz("", doc, leaves)

	var paths []string
	for p := range leaves {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, ok := statszExempt[path]; ok {
			continue
		}
		family, ok := statszTwin[path]
		if !ok {
			t.Errorf("/statsz leaf %q has no /metricsz twin: add one to the registry and to statszTwin, or exempt it with a reason", path)
			continue
		}
		if _, ok := fams[family]; !ok {
			t.Errorf("/statsz leaf %q maps to %q, which is missing from /metricsz", path, family)
		}
	}
	// The table must not reference families that no longer exist
	// either — a rename has to land on both surfaces.
	for path, family := range statszTwin {
		if _, ok := fams[family]; !ok {
			t.Errorf("statszTwin[%q] = %q is not on /metricsz", path, family)
		}
	}
}

// flattenStatsz walks a decoded JSON document and records every
// numeric or boolean leaf as a dotted path; array indices and the keys
// of "lanes" maps collapse to "*" so per-replica and per-lane leaves
// match one table entry.
func flattenStatsz(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			key := k
			if strings.HasSuffix(prefix, "lanes") {
				key = "*"
			}
			p := key
			if prefix != "" {
				p = prefix + "." + key
			}
			flattenStatsz(p, child, out)
		}
	case []any:
		for _, child := range x {
			flattenStatsz(prefix+".*", child, out)
		}
	case float64, bool:
		out[prefix] = true
	}
}

// TestMetricsTwinValuesAgree spot-checks that a twin pair reports the
// same number on the same scrape after traffic: the engine's /statsz
// memo counters equal the soproc_engine_* families.
func TestMetricsTwinValuesAgree(t *testing.T) {
	eng := exp.New(2)
	srv := serve.New(eng)
	obs := srv.EnableObservability(serve.ObservabilityOptions{})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive some points through the sweep endpoint, twice for memo hits.
	body := `{"points":[{"workload":"Web Search","core":"ooo","cores":4,"llc_mb":2}]}`
	for i := 0; i < 2; i++ {
		res, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("POST /v1/sweep: status %d", res.StatusCode)
		}
	}

	fams, err := metrics.ParseText(obs.Registry.Text())
	if err != nil {
		t.Fatal(err)
	}
	es := eng.Stats()
	for family, want := range map[string]int64{
		"soproc_engine_points_total":    es.Misses,
		"soproc_engine_memo_hits_total": es.Hits,
	} {
		fam, ok := fams[family]
		if !ok {
			t.Fatalf("%s missing from scrape", family)
		}
		if got := fam.Samples[0].Value; got != float64(want) {
			t.Errorf("%s = %v, /statsz says %d", family, got, want)
		}
	}
	if es.Misses == 0 || es.Hits == 0 {
		t.Fatalf("traffic did not exercise both memo paths: %+v", es)
	}
}
