package metrics

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testLane, testPeer, testInner and testStats form a snapshot shaped
// like the subsystems' Stats types: integer, float and bool fields, a
// field kept off the page, a nested struct, an interface section, and
// labeled families from a map and from a slice.
type testLane struct {
	Admitted int64 `metric:"soproc_test_lane_admitted_total" help:"per-lane admits"`
}

type testPeer struct {
	Addr string `metric:"label"`
	Down bool   `metric:"soproc_test_replica_down" help:"down flags"`
}

type testInner struct {
	Routed int `metric:"soproc_test_routed_points_total" help:"routed"`
}

type testStats struct {
	Points   int64   `metric:"soproc_test_points_total" help:"points handled"`
	InFlight float64 `metric:"soproc_test_in_flight_points" help:"points in flight"`
	Rate     float64 `metric:"-"`
	Inner    testInner
	Section  any
	Lanes    map[string]testLane `metric:"lane"`
	Peers    []testPeer          `metric:"replica"`
}

func testSnapshot() testStats {
	return testStats{
		Points:   3,
		InFlight: 1.5,
		Rate:     0.25,
		Inner:    testInner{Routed: 42},
		Section:  struct{ Hidden int }{7},
		Lanes:    map[string]testLane{"interactive": {5}, `we"ird\lane`: {7}, "bulk": {2}},
		Peers:    []testPeer{{"10.0.0.2:8080", false}, {"10.0.0.1:8080", true}},
	}
}

// TestTextRendering locks the exposition format down: HELP/TYPE
// comments, kinds from the _total rule, sorted families, bools as 1/0,
// map labels in key order and slice labels in slice order, label
// escaping, and values read at scrape time rather than registration.
func TestTextRendering(t *testing.T) {
	reg := NewRegistry()
	st := testSnapshot()
	RegisterStats(reg, func() testStats { return st })
	st.Points = 4

	want := `# HELP soproc_test_in_flight_points points in flight
# TYPE soproc_test_in_flight_points gauge
soproc_test_in_flight_points 1.5
# HELP soproc_test_lane_admitted_total per-lane admits
# TYPE soproc_test_lane_admitted_total counter
soproc_test_lane_admitted_total{lane="bulk"} 2
soproc_test_lane_admitted_total{lane="interactive"} 5
soproc_test_lane_admitted_total{lane="we\"ird\\lane"} 7
# HELP soproc_test_points_total points handled
# TYPE soproc_test_points_total counter
soproc_test_points_total 4
# HELP soproc_test_replica_down down flags
# TYPE soproc_test_replica_down gauge
soproc_test_replica_down{replica="10.0.0.2:8080"} 0
soproc_test_replica_down{replica="10.0.0.1:8080"} 1
# HELP soproc_test_routed_points_total routed
# TYPE soproc_test_routed_points_total counter
soproc_test_routed_points_total 42
`
	if got := reg.Text(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogram checks cumulative bucket expansion and sum/count.
func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soproc_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	fams, err := ParseText(reg.Text())
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	fam := fams["soproc_test_latency_seconds"]
	if fam == nil || fam.Kind != KindHistogram {
		t.Fatalf("histogram family missing or mistyped: %+v", fam)
	}
	wantBuckets := map[string]float64{"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
	for le, want := range wantBuckets {
		s, ok := fam.Sample(map[string]string{"le": le})
		if !ok || s.Value != want {
			t.Errorf("bucket le=%s: got %+v ok=%v, want %v", le, s, ok, want)
		}
	}
	var sum, count float64
	for _, s := range fam.Samples {
		switch s.Name {
		case "soproc_test_latency_seconds_sum":
			sum = s.Value
		case "soproc_test_latency_seconds_count":
			count = s.Value
		}
	}
	if count != 4 || math.Abs(sum-5.555) > 1e-9 {
		t.Errorf("sum=%v count=%v, want 5.555 and 4", sum, count)
	}
}

// TestParseRoundTrip renders a registry and re-parses it: every family
// must come back with its kind, help, and values intact.
func TestParseRoundTrip(t *testing.T) {
	reg := NewRegistry()
	RegisterStats(reg, testSnapshot)
	fams, err := ParseText(reg.Text())
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	routed := fams["soproc_test_routed_points_total"]
	if v, ok := routed.Value(); !ok || v != 42 || routed.Kind != KindCounter {
		t.Errorf("routed counter: got %v ok=%v kind %s", v, ok, routed.Kind)
	}
	if routed.Help != "routed" {
		t.Errorf("help lost: %+v", routed)
	}
	s, ok := fams["soproc_test_replica_down"].Sample(map[string]string{"replica": "10.0.0.1:8080"})
	if !ok || s.Value != 1 {
		t.Errorf("replica gauge: got %+v ok=%v", s, ok)
	}
	s, ok = fams["soproc_test_lane_admitted_total"].Sample(map[string]string{"lane": `we"ird\lane`})
	if !ok || s.Value != 7 {
		t.Errorf("escaped lane: got %+v ok=%v", s, ok)
	}
}

// TestParseRejectsMalformed verifies the parser is strict about the
// properties the CI lint relies on.
func TestParseRejectsMalformed(t *testing.T) {
	for _, page := range []string{
		"soproc_orphan_total 3\n",                                        // sample without TYPE
		"# TYPE soproc_x_total counter\nsoproc_x_total x\n",              // non-numeric value
		"# TYPE soproc_x_total widget\n",                                 // unknown kind
		"# TYPE soproc_x_total counter\n# TYPE soproc_x_total counter\n", // duplicate
	} {
		if _, err := ParseText(page); err == nil {
			t.Errorf("ParseText accepted malformed page %q", page)
		}
	}
}

// TestLint checks the naming contract on a conforming page and on one
// page per violation.
func TestLint(t *testing.T) {
	page := "# HELP soproc_engine_points_total points\n# TYPE soproc_engine_points_total counter\n" +
		"soproc_engine_points_total 1\n"
	if fams, err := Lint(page); err != nil || len(fams) != 1 {
		t.Errorf("conforming page: %v", err)
	}
	for page, want := range map[string]string{
		"":                          "no families",
		"soproc_engine_x_total 1\n": "line 1",
		"# HELP x_total x\n# TYPE x_total counter\nx_total 1\n":                         "naming",
		"# HELP soproc_engine_x x\n# TYPE soproc_engine_x counter\nsoproc_engine_x 1\n": "_total",
		"# TYPE soproc_engine_x gauge\nsoproc_engine_x 1\n":                             "HELP",
	} {
		_, err := Lint(page)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Lint(%q) = %v, want an error mentioning %q", page, err, want)
		}
	}
}

// TestHandler serves a scrape over HTTP with the 0.0.4 content type.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	RegisterStats(reg, testSnapshot)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "soproc_test_points_total 3") {
		t.Errorf("scrape body missing counter: %s", buf[:n])
	}
}

// TestDuplicateRegistrationPanics locks in fail-fast registration.
func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	RegisterStats(reg, testSnapshot)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterStats(reg, func() testInner { return testInner{} })
}

// TestRegisterStatsRejectsUndeclared checks that every field shape
// RegisterStats cannot read, or that declares no family, panics at
// registration.
func TestRegisterStatsRejectsUndeclared(t *testing.T) {
	type untagged struct {
		Points int64 `json:"points"`
	}
	type str struct {
		Name string `metric:"soproc_test_name" help:"a string"`
	}
	type unlabeledMap struct {
		Lanes map[string]testLane
	}
	type nameless struct {
		Peers []testLane `metric:"replica"`
	}
	type untaggedElem struct {
		Peers []struct {
			Addr string `metric:"label"`
			Sent int64
		} `metric:"replica"`
	}
	for name, register := range map[string]func(*Registry){
		"untagged numeric":          func(r *Registry) { RegisterStats(r, func() untagged { return untagged{} }) },
		"string field":              func(r *Registry) { RegisterStats(r, func() str { return str{} }) },
		"map without label":         func(r *Registry) { RegisterStats(r, func() unlabeledMap { return unlabeledMap{} }) },
		"slice without label field": func(r *Registry) { RegisterStats(r, func() nameless { return nameless{} }) },
		"untagged element field":    func(r *Registry) { RegisterStats(r, func() untaggedElem { return untaggedElem{} }) },
		"non-struct snapshot":       func(r *Registry) { RegisterStats(r, func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}

// TestDecisionLogRing checks wraparound, ordering, and Seq continuity.
func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(4)
	for i := 0; i < 10; i++ {
		l.Add(Decision{Key: fmt.Sprintf("k%d", i), Source: "memo"})
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	last := l.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) returned %d records, want 4", len(last))
	}
	for i, d := range last {
		wantKey := fmt.Sprintf("k%d", 6+i)
		if d.Key != wantKey || d.Seq != uint64(7+i) {
			t.Errorf("record %d = %+v, want key %s seq %d", i, d, wantKey, 7+i)
		}
	}
	if two := l.Last(2); len(two) != 2 || two[1].Key != "k9" {
		t.Errorf("Last(2) = %+v", two)
	}
}

// TestDecisionLogConcurrent hammers the ring from many goroutines
// while a reader snapshots it — run under -race this is the ring's
// safety proof.
func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(Decision{Key: KeyFingerprint(fmt.Sprintf("w%d-%d", w, i)), Source: "simulated"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			l.Last(16)
		}
	}()
	wg.Wait()
	<-done
	if l.Total() != 8*500 {
		t.Fatalf("Total = %d, want %d", l.Total(), 8*500)
	}
}

// TestKeyFingerprint pins stability and distinctness.
func TestKeyFingerprint(t *testing.T) {
	a, b := KeyFingerprint("config-a"), KeyFingerprint("config-b")
	if a == b || a == "" {
		t.Errorf("fingerprints not distinct: %q %q", a, b)
	}
	if KeyFingerprint("config-a") != a {
		t.Error("fingerprint not stable")
	}
	if KeyFingerprint("") != "" {
		t.Error("empty key must fingerprint to empty")
	}
}

// TestDecisionLogTimestamps verifies records carry the injected clock.
func TestDecisionLogTimestamps(t *testing.T) {
	l := NewDecisionLog(2)
	fixed := time.Unix(1700000000, 42)
	l.clock = func() time.Time { return fixed }
	l.Add(Decision{Source: "memo"})
	if got := l.Last(1)[0].UnixNanos; got != fixed.UnixNano() {
		t.Errorf("UnixNanos = %d, want %d", got, fixed.UnixNano())
	}
}
