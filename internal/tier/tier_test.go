package tier

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func TestRegionKeyGranularity(t *testing.T) {
	if got := RegionKey(1, "sim", tech.OoO, noc.Crossbar, 16, 4); got != "sim/OoO" {
		t.Errorf("granularity 1: %q", got)
	}
	if got := RegionKey(2, "sim", tech.OoO, noc.Mesh, 16, 4); got != "sim/OoO/Mesh" {
		t.Errorf("granularity 2: %q", got)
	}
	want := "structural/OoO/Crossbar/c9-16/llc<=4"
	if got := RegionKey(3, "structural", tech.OoO, noc.Crossbar, 16, 4); got != want {
		t.Errorf("granularity 3: %q, want %q", got, want)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		mode Mode
		ok   bool
	}{{"", Exact, true}, {"exact", Exact, true}, {"fast", Fast, true}, {"bogus", Exact, false}} {
		m, ok := ParseMode(c.in)
		if m != c.mode || ok != c.ok {
			t.Errorf("ParseMode(%q) = (%v, %v), want (%v, %v)", c.in, m, ok, c.mode, c.ok)
		}
	}
}

// An uncalibrated evaluator returns exactly what the simulators return:
// it certifies nothing, so every point escalates and nothing is
// approximated.
func TestExactUncalibratedMatchesDirect(t *testing.T) {
	ws := workload.Suite()
	ev := New(nil)
	ctx := exp.WithEngine(context.Background(), exp.New(1))

	simCfgs := []sim.Config{
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		{Workload: ws[1], CoreType: tech.OoO, Cores: 8, LLCMB: 2, Net: noc.New(noc.Mesh, 8)},
	}
	got, err := ev.Sims(ctx, simCfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range simCfgs {
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("sim point %d: tiered %+v != direct %+v", i, got[i], want)
		}
	}

	structCfgs := []sim.StructuralConfig{
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}, // duplicate
	}
	sgot, err := ev.Structurals(ctx, structCfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunStructural(structCfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range structCfgs {
		if !reflect.DeepEqual(sgot[i], want) {
			t.Errorf("structural point %d: tiered %+v != direct %+v", i, sgot[i], want)
		}
	}
	st := ev.Stats()
	if st.Scored != 4 || st.Escalated != 4 || st.SurrogateServed != 0 {
		t.Errorf("uncalibrated stats = %+v, want 4 scored, 4 escalated", st)
	}
}

// The evaluator serves points in certified regions from the surrogate,
// tagged Source="surrogate", so nothing simulates.
func TestFastServesSurrogate(t *testing.T) {
	cal := &Calibration{
		Granularity: 1,
		Regions: []Region{
			{Key: "sim/OoO", Samples: 1, MaxRelErr: 0.05},
			{Key: "structural/OoO", Samples: 1, MaxRelErr: 0.05},
		},
	}
	ev := New(cal)
	ctx := exp.WithEngine(context.Background(), exp.New(1))
	ws := workload.Suite()

	got, err := ev.Sims(ctx, []sim.Config{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Source != "surrogate" {
		t.Errorf("certified sim point Source = %q, want surrogate", got[0].Source)
	}
	if got[0].AppIPC <= 0 {
		t.Errorf("surrogate sim AppIPC = %v", got[0].AppIPC)
	}

	sgot, err := ev.Structurals(ctx, []sim.StructuralConfig{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sgot[0].Source != "surrogate" || sgot[0].L1IMPKI <= 0 {
		t.Errorf("certified structural point = %+v, want surrogate-tagged prediction", sgot[0])
	}
	if st := ev.Stats(); st.SurrogateServed != 2 || st.Escalated != 0 {
		t.Errorf("fast stats = %+v, want 2 surrogate-served, 0 escalated", st)
	}
}

// A point whose region the calibration does not certify escalates and
// returns the genuine simulator result, beside a surrogate-served point
// of the same batch. Unknown, sampleless and over-bound regions never
// certify.
func TestFastEscalatesUncertified(t *testing.T) {
	ev := New(&Calibration{
		Granularity: 1,
		Regions: []Region{
			{Key: "sim/OoO", Samples: 1, MaxRelErr: 0.05},
			{Key: "sim/Conventional", Samples: 0},
			{Key: "sim/In-order", Samples: 4, MaxRelErr: maxCertifiableRelErr * 2},
		},
	})
	for key, want := range map[string]bool{
		"sim/OoO": true, "sim/Conventional": false, "sim/In-order": false, "structural/OoO": false,
	} {
		if got := ev.certified(key); got != want {
			t.Errorf("certified(%q) = %v, want %v", key, got, want)
		}
	}

	ws := workload.Suite()
	cfgs := []sim.Config{
		{Workload: ws[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1},
		{Workload: ws[0], CoreType: tech.InOrder, Cores: 4, LLCMB: 1},
	}
	got, err := ev.Sims(exp.WithEngine(context.Background(), exp.New(1)), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Source != "surrogate" {
		t.Errorf("certified point Source = %q, want surrogate", got[0].Source)
	}
	want, err := sim.Run(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1], want) {
		t.Errorf("escalated point %+v != direct %+v", got[1], want)
	}
	if st := ev.Stats(); st.Scored != 2 || st.SurrogateServed != 1 || st.Escalated != 1 {
		t.Errorf("stats = %+v, want 2 scored, 1 surrogate-served, 1 escalated", st)
	}
}

// The region table survives a Save/Load round trip bit-exactly: Go's
// float64 JSON encoding is the shortest form that re-parses to the
// same value. A calibration.json from before the simulator results
// moved into the result store still loads its regions; its anchor
// arrays and safety margin are ignored.
func TestCalibrationRoundTrip(t *testing.T) {
	cal := &Calibration{
		Regions: []Region{
			{Key: "sim/OoO", Samples: 3, MaxRelErr: 0.1 + 0.2, MeanRelErr: math.Pi / 17},
			{Key: "structural/OoO", Samples: 2, MaxRelErr: 1.0 / 3, MeanRelErr: math.E / 10},
		},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := cal.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, cal) {
		t.Errorf("calibration changed across round trip:\n%+v\n%+v", loaded, cal)
	}

	old := `{
  "granularity": 3,
  "safety": 1.25,
  "regions": [
    {"key": "sim/OoO/Crossbar/c9-16/llc<=4", "samples": 7, "max_rel_err": 0.089, "mean_rel_err": 0.037}
  ],
  "sim_anchors": [
    {"key": "sim:00ff", "result": {"AppIPC": 9.5, "PerCoreIPC": 0.59}}
  ],
  "structural_anchors": [
    {"key": "structural:00ff", "result": {"AppIPC": 8.25, "L1IMPKI": 21.5}}
  ]
}
`
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	want := []Region{{Key: "sim/OoO/Crossbar/c9-16/llc<=4", Samples: 7, MaxRelErr: 0.089, MeanRelErr: 0.037}}
	if !reflect.DeepEqual(loaded.Regions, want) || loaded.Granularity != 3 {
		t.Errorf("old-format calibration loaded as %+v", loaded)
	}
}

// Escalation is the engine's plain path, so concurrent batches of one
// configuration share a single simulation: two concurrent structural
// batches and a third after them simulate once, and each point is one
// engine decision.
func TestExactStructuralsSingleFlight(t *testing.T) {
	eng := exp.New(2)
	var mu sync.Mutex
	var sources []string
	eng.SetDecisionHook(func(d engine.Decision) {
		mu.Lock()
		sources = append(sources, d.Source)
		mu.Unlock()
	})
	ev := New(nil)
	ctx := exp.WithEngine(context.Background(), eng)
	cfgs := []sim.StructuralConfig{{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1}}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ev.Structurals(ctx, cfgs)
		}(i)
	}
	wg.Wait()
	_, errs[2] = ev.Structurals(ctx, cfgs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"simulated", "memo", "memo"}; !reflect.DeepEqual(sources, want) {
		t.Errorf("decisions = %v, want %v", sources, want)
	}
	if st := eng.Stats(); st.Misses != 1 || st.Hits+st.Misses != 3 {
		t.Errorf("engine stats = %+v, want 1 miss and 3 points resolved", st)
	}
}

// Calibration does not depend on scheduling: the error samples fold in
// key order, so a serial and a parallel run produce the same table,
// mean errors included.
func TestCalibrateDeterministic(t *testing.T) {
	run := func(workers int) *Calibration {
		cal, err := Calibrate(context.Background(), Options{
			Cores: []int{16}, LLCMB: []float64{4}, Nets: []noc.Kind{noc.Crossbar}, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("calibration depends on workers:\n%+v\n%+v", serial, parallel)
	}
	for _, r := range serial.Regions {
		if r.Samples != len(workload.Suite()) {
			t.Errorf("region %s has %d samples, want one per workload", r.Key, r.Samples)
		}
	}
}
