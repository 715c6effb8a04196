// Benchmarks regenerating every table and figure of the thesis's
// evaluation (one per artifact, named after it), plus microbenchmarks of
// the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark* bodies call the same generators as `soproc -exp <id>`;
// benchmarking them both regenerates the artifact and tracks the cost of
// doing so.
package scaleout

import (
	"context"
	"testing"

	"scaleout/internal/analytic"
	"scaleout/internal/cache"
	"scaleout/internal/chip"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/stack3d"
	"scaleout/internal/stats"
	"scaleout/internal/store"
	"scaleout/internal/tco"
	"scaleout/internal/tech"
	"scaleout/internal/trace"
	"scaleout/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Chapter 2 — the case for Scale-Out Processors.
func BenchmarkFig2_1(b *testing.B)   { benchExperiment(b, "fig2.1") }
func BenchmarkFig2_2(b *testing.B)   { benchExperiment(b, "fig2.2") }
func BenchmarkFig2_3(b *testing.B)   { benchExperiment(b, "fig2.3") }
func BenchmarkTable2_3(b *testing.B) { benchExperiment(b, "table2.3") }
func BenchmarkTable2_4(b *testing.B) { benchExperiment(b, "table2.4") }

// Chapter 3 — the scale-out design methodology.
func BenchmarkFig3_1(b *testing.B)   { benchExperiment(b, "fig3.1") }
func BenchmarkFig3_3(b *testing.B)   { benchExperiment(b, "fig3.3") }
func BenchmarkFig3_4(b *testing.B)   { benchExperiment(b, "fig3.4") }
func BenchmarkFig3_5(b *testing.B)   { benchExperiment(b, "fig3.5") }
func BenchmarkFig3_6(b *testing.B)   { benchExperiment(b, "fig3.6") }
func BenchmarkTable3_2(b *testing.B) { benchExperiment(b, "table3.2") }

// Chapter 4 — NOC-Out.
func BenchmarkFig4_3(b *testing.B)   { benchExperiment(b, "fig4.3") }
func BenchmarkFig4_6(b *testing.B)   { benchExperiment(b, "fig4.6") }
func BenchmarkFig4_7(b *testing.B)   { benchExperiment(b, "fig4.7") }
func BenchmarkFig4_8(b *testing.B)   { benchExperiment(b, "fig4.8") }
func BenchmarkNoCPower(b *testing.B) { benchExperiment(b, "power4.4") }

// Chapter 5 — datacenter TCO.
func BenchmarkTable5_1(b *testing.B) { benchExperiment(b, "table5.1") }
func BenchmarkFig5_1(b *testing.B)   { benchExperiment(b, "fig5.1") }
func BenchmarkFig5_2(b *testing.B)   { benchExperiment(b, "fig5.2") }
func BenchmarkFig5_3(b *testing.B)   { benchExperiment(b, "fig5.3") }
func BenchmarkFig5_4(b *testing.B)   { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5(b *testing.B)   { benchExperiment(b, "fig5.5") }

// Chapter 6 — 3D Scale-Out Processors.
func BenchmarkFig6_4(b *testing.B)   { benchExperiment(b, "fig6.4") }
func BenchmarkFig6_5(b *testing.B)   { benchExperiment(b, "fig6.5") }
func BenchmarkFig6_6(b *testing.B)   { benchExperiment(b, "fig6.6") }
func BenchmarkFig6_7(b *testing.B)   { benchExperiment(b, "fig6.7") }
func BenchmarkTable6_2(b *testing.B) { benchExperiment(b, "table6.2") }

// Full-harness regeneration on the experiment engine. Each iteration
// uses a fresh engine (fresh memo), so the numbers measure real
// simulation work; the Serial/Parallel pair tracks the speedup from the
// concurrent sweep runner, and the Parallel/StoreWarm pair the speedup
// from serving every point from the persistent result store.

// benchRunAll regenerates every figure per iteration on a fresh engine
// of the given size, over st when it is non-nil.
func benchRunAll(b *testing.B, workers int, st *store.Store) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := exp.New(workers)
		if st != nil {
			eng.SetStore(st)
		}
		if _, err := figures.RunAllContext(exp.WithEngine(context.Background(), eng)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1, nil) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0, nil) }

// BenchmarkRunAllStoreWarm is BenchmarkRunAllParallel on a result store
// an untimed first pass filled: each iteration's fresh engine serves
// every point from disk. CI requires RunAllParallel/RunAllStoreWarm to
// stay above 1.3.
func BenchmarkRunAllStoreWarm(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	eng := exp.New(0)
	eng.SetStore(st)
	if _, err := figures.RunAllContext(exp.WithEngine(context.Background(), eng)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchRunAll(b, 0, st)
}

// Substrate microbenchmarks. The kernel pairs (event vs lock-step
// reference) live with the kernel, in internal/sim.

func BenchmarkAnalyticChipIPC(b *testing.B) {
	ws := workload.Suite()
	d := analytic.NewDesign(tech.OoO, 32, 8, noc.Mesh)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analytic.EvaluateSuite(ws, d)
	}
}

func BenchmarkPodSweep(b *testing.B) {
	ws := workload.Suite()
	space := core.DefaultSweep(tech.OoO)
	n := tech.N40()
	for i := 0; i < b.N; i++ {
		core.Sweep(space, n, ws)
	}
}

func BenchmarkCompose(b *testing.B) {
	ws := workload.Suite()
	pod := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	n := tech.N40()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compose(n, pod, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompose3D(b *testing.B) {
	ws := workload.Suite()
	pod := core.Pod{Core: tech.OoO, Cores: 32, LLCMB: 2, Net: noc.Crossbar}
	n := tech.N40For3D()
	for i := 0; i < b.N; i++ {
		if _, err := stack3d.Compose3D(n, pod, 4, stack3d.FixedPod, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCOCompose(b *testing.B) {
	ws := workload.Suite()
	specs := chip.TCOCatalog(ws)
	p := tco.NewParams()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := tco.Compose(p, s, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCacheInsertLookup(b *testing.B) {
	c, err := cache.NewSetAssoc(1<<20, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRng(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		block := rng.Uint64() % 100000
		if !c.Lookup(block) {
			c.Insert(block, false)
		}
	}
}

func BenchmarkDirectory(b *testing.B) {
	d, err := cache.NewDirectory(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRng(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core := int(rng.Uint64() % 64)
		block := rng.Uint64() % 512
		if rng.Float64() < 0.4 {
			d.Write(core, block)
		} else {
			d.Read(core, block)
		}
	}
}

func BenchmarkNoCLatencyModels(b *testing.B) {
	cfgs := []noc.Config{
		noc.New(noc.Mesh, 64), noc.New(noc.FlattenedButterfly, 64),
		noc.New(noc.NOCOut, 64), noc.New(noc.Crossbar, 16),
	}
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			_ = c.AccessLatency()
			_ = c.Area().Total()
		}
	}
}

// Ablations and extensions.
func BenchmarkAblatePods(b *testing.B)      { benchExperiment(b, "ablate.pods") }
func BenchmarkAblateLLC(b *testing.B)       { benchExperiment(b, "ablate.llc") }
func BenchmarkAblateBanks(b *testing.B)     { benchExperiment(b, "ablate.banks") }
func BenchmarkAblateMSHR(b *testing.B)      { benchExperiment(b, "ablate.mshr") }
func BenchmarkAblateLinkWidth(b *testing.B) { benchExperiment(b, "ablate.linkwidth") }
func BenchmarkAblateSharing(b *testing.B)   { benchExperiment(b, "ablate.sharing") }
func BenchmarkExtHetero(b *testing.B)       { benchExperiment(b, "ext.hetero") }
func BenchmarkExtDVFS(b *testing.B)         { benchExperiment(b, "ext.dvfs") }
func BenchmarkExtStructural(b *testing.B)   { benchExperiment(b, "ext.structural") }

func BenchmarkTraceGenerator(b *testing.B) {
	ws := workload.Suite()
	g, err := trace.NewFromWorkload(ws[0], tech.OoO, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.NextInstr()
		g.NextData()
	}
}

func BenchmarkAblateTCO(b *testing.B) { benchExperiment(b, "ablate.tco") }

func BenchmarkExtNOCOutScale(b *testing.B) { benchExperiment(b, "ext.nocout-scale") }
