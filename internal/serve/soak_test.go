package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/exp"
	"scaleout/internal/metrics"
	"scaleout/internal/sim"
	"scaleout/internal/store"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// TestObservabilitySoak churns every observable subsystem at once under
// the race detector: eight workers push overlapping sim batches through
// a small-memo engine backed by a write-through store, gated by an
// admission controller, while a scraper renders and re-parses the
// shared metrics registry (live histogram plus tagged Stats snapshots)
// and the decision ring fills. Afterwards the books must balance —
// every admission attempt accounted for, every point served by exactly
// one of memo/store/compute, and the final scrape numerically equal to
// the subsystems' own stats.
func TestObservabilitySoak(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 200 * time.Millisecond
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	// A memo far smaller than the working set forces concurrent
	// evictions, store write-through, and disk re-hits.
	eng := exp.NewBounded(4, 24)
	eng.SetStore(st)
	srv := New(eng)
	obs := srv.EnableObservability(ObservabilityOptions{TraceDecisions: true, TraceCapacity: 256})
	st.RegisterMetrics(obs.Registry)
	ctrl := admit.New(admit.Options{MaxInFlight: 6, QueueDepth: 4})
	ctrl.RegisterMetrics(obs.Registry)

	suite := workload.Suite()
	cfgs := make([]sim.Config, 96)
	for i := range cfgs {
		cfgs[i] = sim.Config{
			Workload: suite[i%len(suite)],
			CoreType: tech.CoreType(i % 3),
			Cores:    2 << (i % 2),
			LLCMB:    0.5 * float64(1+i),
		}
	}

	ctx := exp.WithEngine(context.Background(), eng)
	deadline := time.Now().Add(dur)
	var attempts, admitted, completed, shedded, points atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				attempts.Add(1)
				release, err := ctrl.Admit(ctx, admit.Bulk, "soak")
				if err != nil {
					shedded.Add(1)
					continue
				}
				admitted.Add(1)
				batch := []sim.Config{
					cfgs[rng.Intn(len(cfgs))],
					cfgs[rng.Intn(len(cfgs))],
				}
				if _, err := exp.Sims(ctx, batch); err != nil {
					t.Errorf("Sims: %v", err)
				} else {
					points.Add(int64(len(batch)))
				}
				release()
				completed.Add(1)
			}
		}(int64(g))
	}
	// The scraper races the workers on purpose: rendering must never
	// tear (ParseText re-validates every page) and never deadlock
	// against the subsystems' own locks.
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := metrics.ParseText(obs.Registry.Text()); err != nil {
				t.Errorf("mid-soak scrape: %v", err)
				return
			}
			scrapes++
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Admission conservation: every attempt either got a slot or was
	// shed, every admitted request released.
	ast := ctrl.Stats()
	if ast.Admitted != admitted.Load() || admitted.Load() != completed.Load() {
		t.Fatalf("admitted = %d (stats %d), completed = %d; want equal", admitted.Load(), ast.Admitted, completed.Load())
	}
	refused := ast.RateLimited + ast.ShedQueueFull + ast.ShedDraining + ast.Abandoned
	if refused != shedded.Load() {
		t.Fatalf("refused per stats = %d, observed sheds = %d", refused, shedded.Load())
	}
	if got := ast.Admitted + refused; got != attempts.Load() {
		t.Fatalf("admitted %d + refused %d = %d, want %d attempts", ast.Admitted, refused, got, attempts.Load())
	}
	if ast.InFlight != 0 {
		t.Fatalf("in-flight after soak = %d, want 0", ast.InFlight)
	}

	// Engine conservation: each point came from exactly one source.
	es := eng.Stats()
	if got := es.Hits + es.Misses + es.StoreHits; got != points.Load() {
		t.Fatalf("hits %d + misses %d + store hits %d = %d, want %d points",
			es.Hits, es.Misses, es.StoreHits, got, points.Load())
	}
	if es.InFlight != 0 {
		t.Fatalf("engine in-flight after soak = %d, want 0", es.InFlight)
	}
	if es.Evictions == 0 || es.StoreHits == 0 {
		t.Fatalf("soak did not exercise eviction + disk re-hit (evictions %d, store hits %d)", es.Evictions, es.StoreHits)
	}

	// The quiesced scrape equals the subsystems' own counters, and the
	// decision ring saw every engine resolution.
	byName, err := metrics.ParseText(obs.Registry.Text())
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	for name, want := range map[string]int64{
		"soproc_engine_points_total":      es.Misses,
		"soproc_engine_memo_hits_total":   es.Hits,
		"soproc_engine_store_hits_total":  es.StoreHits,
		"soproc_admit_admitted_total":     ast.Admitted,
		"soproc_store_disk_hits_total":    st.Stats().DiskHits,
		"soproc_engine_in_flight_points":  0,
		"soproc_admit_in_flight_requests": 0,
	} {
		fam := byName[name]
		if fam == nil {
			t.Fatalf("final scrape is missing %s", name)
		}
		if got := fam.Samples[0].Value; got != float64(want) {
			t.Fatalf("%s = %v, want %d", name, got, want)
		}
	}
	if total := obs.Trace.Total(); total == 0 {
		t.Fatal("decision ring recorded nothing")
	}
	if scrapes == 0 {
		t.Fatal("scraper never ran")
	}
}
