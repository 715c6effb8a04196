package tier

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/store"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// A calibration run on a result store leaves every point it sampled
// there, so exact evaluation — a fresh engine on the reopened store,
// with no evaluator installed — regenerates the suites byte-identically
// to direct simulation without simulating anything.
func TestTieredExactFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates figure suites twice")
	}
	suites := []string{"ext.structural", "ablate.mshr", "ablate.banks"}

	render := func(ctx context.Context) string {
		var b strings.Builder
		for _, id := range suites {
			tb, err := figures.RunContext(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
		return b.String()
	}

	direct := render(exp.WithEngine(context.Background(), exp.New(0)))

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(context.Background(), Options{
		// A minimal grid plus the three suites under the recorder.
		Cores: []int{16}, LLCMB: []float64{4}, Nets: []noc.Kind{noc.Crossbar},
		Store: st,
		Suites: func(ctx context.Context) error {
			for _, id := range suites {
				if _, err := figures.RunContext(ctx, id); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Regions) == 0 {
		t.Fatal("calibration sampled no region")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := exp.New(0)
	eng.SetStore(st)
	if got := render(exp.WithEngine(context.Background(), eng)); got != direct {
		t.Fatal("regeneration on the calibration store differs from direct simulation")
	}
	if es := eng.Stats(); es.Misses != 0 || es.StoreHits == 0 {
		t.Errorf("regeneration on the calibration store: %+v, want 0 misses and store hits", es)
	}
}

// Randomized differential: across a seeded random scatter of structural
// configurations, the uncalibrated evaluator escalates every point and
// returns exactly what the structural simulator returns.
func TestTieredExactRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ws := workload.Suite()
	coreCounts := []int{4, 8, 16, 32}
	llcs := []float64{1, 2, 4, 8}
	nets := []noc.Kind{noc.Crossbar, noc.Mesh}

	var cfgs []sim.StructuralConfig
	for i := 0; i < 12; i++ {
		cores := coreCounts[rng.Intn(len(coreCounts))]
		cfgs = append(cfgs, sim.StructuralConfig{
			Workload: ws[rng.Intn(len(ws))],
			CoreType: tech.OoO,
			Cores:    cores,
			LLCMB:    llcs[rng.Intn(len(llcs))],
			Net:      noc.New(nets[rng.Intn(len(nets))], cores),
			Seed:     uint64(rng.Intn(3) + 1),
		})
	}

	ev := New(nil)
	ctx := exp.WithEngine(context.Background(), exp.New(0))
	got, err := ev.Structurals(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := sim.RunStructural(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("config %d (%+v): tiered %+v != direct %+v", i, cfg, got[i], want)
		}
	}
}
