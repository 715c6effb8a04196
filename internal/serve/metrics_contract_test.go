package serve_test

import (
	"io"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
	"scaleout/internal/store"
)

// pageMasks blank the values of a page that vary from run to run: the
// server's uptime, the latency histogram, and the store log's length,
// which follows the JSON length of simulator results and so may move
// off amd64.
var pageMasks = []*regexp.Regexp{
	regexp.MustCompile(`("uptime_seconds": |"bytes": )[^,\n]+`),
	regexp.MustCompile(`(?m)^((?:soproc_server_uptime_seconds|soproc_store_log_bytes|soproc_engine_point_latency_seconds_\w+)(?:\{[^}]*\})? )\S+$`),
}

// TestMetricsContract wires every subsystem into one server — engine
// with store, tiered evaluator, admission controller, and a (never
// routed) two-replica coordinator — drives two POSTs of a 2-point
// sweep that repeats one point, and holds both observability pages to
// their contracts: /metricsz passes the naming lint, and each page
// equals its golden under testdata once pageMasks have run. Both pages
// render from the same tagged Stats snapshots, so the goldens pin each
// counter's /statsz path and /metricsz family together.
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

	point := `{"workload":"Web Search","core":"ooo","cores":4,"llc_mb":2}`
	body := `{"points":[` + point + `,` + point + `]}`
	for i := 0; i < 2; i++ {
		res, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("POST /v1/sweep: status %d", res.StatusCode)
		}
	}

	get := func(path, contentType string) string {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		if ct := res.Header.Get("Content-Type"); ct != contentType {
			t.Fatalf("GET %s: Content-Type = %q, want %q", path, ct, contentType)
		}
		page, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(page)
	}
	statsz := get("/statsz", "application/json")
	metricsz := get("/metricsz", metrics.ContentType)
	if _, err := metrics.Lint(metricsz); err != nil {
		t.Fatalf("/metricsz: %v\npage:\n%s", err, metricsz)
	}
	for file, page := range map[string]string{"statsz.golden": statsz, "metricsz.golden": metricsz} {
		for _, re := range pageMasks {
			page = re.ReplaceAllString(page, "${1}MASKED")
		}
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if page != string(want) {
			t.Errorf("page differs from testdata/%s; masked page:\n%s", file, page)
		}
	}
}

// TestMetricsTwinValuesAgree spot-checks that a counter reads the same
// on both pages after traffic: the engine's /statsz memo counters equal
// the soproc_engine_* families.
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
