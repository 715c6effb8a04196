package serve

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/exp"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

func postSweepReq(t *testing.T, s *Server, req SweepRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// An unknown tier name is a 400, not a silent fall back to exact.
func TestSweepUnknownTier(t *testing.T) {
	s := New(exp.New(1))
	w := postSweepReq(t, s, SweepRequest{Tier: "bogus", Points: []SweepPoint{{
		Workload: workload.WebSearch, Core: "ooo", Cores: 2, LLCMB: 1,
	}}})
	if w.Code != 400 {
		t.Fatalf("tier bogus: status %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "unknown tier") {
		t.Errorf("tier bogus: body %q", w.Body.String())
	}
}

// The default (exact) sweep path returns exactly what the simulator
// returns: it runs on the engine, without the evaluator.
func TestSweepExactMatchesDirect(t *testing.T) {
	s := New(exp.New(1))
	pt := SweepPoint{Workload: workload.WebSearch, Core: "ooo", Cores: 4, LLCMB: 2}
	w := postSweepReq(t, s, SweepRequest{Points: []SweepPoint{pt}})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	_, cfg, err := pt.config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg.(sim.Config))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Sim == nil || !reflect.DeepEqual(*resp.Results[0].Sim, want) {
		t.Errorf("sweep result %+v != direct %+v", resp.Results[0].Sim, want)
	}
}

// tier:"fast" against a calibrated evaluator serves certified points
// from the surrogate, tagged in the wire result; the same request with
// tier "exact" stays exact.
func TestSweepFastTier(t *testing.T) {
	s := New(exp.New(1))
	s.SetTier(certifyingEvaluator())

	pt := SweepPoint{Workload: workload.WebSearch, Core: "ooo", Cores: 4, LLCMB: 2}
	w := postSweepReq(t, s, SweepRequest{Tier: "fast", Points: []SweepPoint{pt}})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Sim.Source != "surrogate" {
		t.Errorf("fast tier source = %q, want surrogate", resp.Results[0].Sim.Source)
	}

	w = postSweepReq(t, s, SweepRequest{Tier: "exact", Points: []SweepPoint{pt}})
	var exact SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Results[0].Sim.Source != "" {
		t.Errorf("exact tier served a surrogate value: %+v", exact.Results[0].Sim)
	}
}

// certifyingEvaluator certifies every region at granularity 1, so each
// point it receives is served from the surrogate.
func certifyingEvaluator() *tier.Evaluator {
	var regions []tier.Region
	for _, kind := range []string{"sim", "structural"} {
		for _, core := range []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder} {
			regions = append(regions, tier.Region{Key: tier.RegionKey(1, kind, core, 0, 0, 0), Samples: 1, MaxRelErr: 0.05})
		}
	}
	return tier.New(&tier.Calibration{Granularity: 1, Regions: regions})
}

// The /statsz tier counters count fast-mode points only: with a
// calibrated evaluator installed, exact sweeps and a /v1/exp run leave
// them at 0, and a fast sweep is counted.
func TestStatszTierSection(t *testing.T) {
	s := New(exp.New(0))
	s.SetTier(certifyingEvaluator())
	tierStats := func() tier.Stats {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
		var st StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Tier
	}
	pts := []SweepPoint{{Workload: workload.WebSearch, Core: "ooo", Cores: 2, LLCMB: 1}}
	for _, name := range []string{"", "exact"} {
		if w := postSweepReq(t, s, SweepRequest{Tier: name, Points: pts}); w.Code != 200 {
			t.Fatalf("tier %q sweep: status %d: %s", name, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/exp/fig2.1", nil))
	if w.Code != 200 {
		t.Fatalf("/v1/exp/fig2.1: status %d: %s", w.Code, w.Body.String())
	}
	if st := tierStats(); st != (tier.Stats{Regions: 6}) {
		t.Errorf("tier stats after exact traffic = %+v, want only 6 regions", st)
	}

	if w := postSweepReq(t, s, SweepRequest{Tier: "fast", Points: pts}); w.Code != 200 {
		t.Fatalf("fast sweep: status %d: %s", w.Code, w.Body.String())
	}
	if st := tierStats(); st.Scored != 1 || st.SurrogateServed != 1 || st.Escalated != 0 {
		t.Errorf("tier stats after a fast sweep = %+v, want 1 scored, 1 surrogate-served", st)
	}
}
