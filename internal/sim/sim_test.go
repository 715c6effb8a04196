package sim

import (
	"context"
	"math"
	"testing"

	"scaleout/internal/analytic"
	"scaleout/internal/exp/engine"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func wl(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	return w
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func baseCfg(t *testing.T) Config {
	return Config{
		Workload: wl(t, workload.WebSearch),
		CoreType: tech.OoO,
		Cores:    16,
		LLCMB:    4,
		Net:      noc.New(noc.Crossbar, 16),
	}
}

func TestRunValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LLCMB = 0 },
		func(c *Config) { c.Workload = workload.Workload{} },
	}
	for i, mutate := range cases {
		cfg := baseCfg(t)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseCfg(t)
	a := run(t, cfg)
	b := run(t, cfg)
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResult(t *testing.T) {
	cfg := baseCfg(t)
	a := run(t, cfg)
	cfg.Seed = 99
	b := run(t, cfg)
	if a.Instructions == b.Instructions {
		t.Fatal("different seeds produced identical instruction counts")
	}
	// But the measured IPC should be statistically stable.
	if math.Abs(a.AppIPC-b.AppIPC)/a.AppIPC > 0.1 {
		t.Fatalf("seed sensitivity too high: %v vs %v", a.AppIPC, b.AppIPC)
	}
}

func TestIPCBounds(t *testing.T) {
	for _, w := range workload.Suite() {
		cfg := baseCfg(t)
		cfg.Workload = w
		r := run(t, cfg)
		if r.AppIPC <= 0 {
			t.Errorf("%s: IPC %v", w.Name, r.AppIPC)
		}
		if r.PerCoreIPC >= w.BaseIPC.OoO {
			t.Errorf("%s: per-core %v above base %v", w.Name, r.PerCoreIPC, w.BaseIPC.OoO)
		}
	}
}

// Agreement with the analytic model within the window the thesis reports
// for Figure 3.3 ("excellent accuracy up to 16 cores").
func TestAgreementWithModel(t *testing.T) {
	for _, w := range workload.Suite() {
		for _, cores := range []int{4, 16} {
			if cores > w.ScaleLimit {
				continue
			}
			cfg := Config{
				Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: 4,
				Net: noc.New(noc.Crossbar, cores), DisableSWScaling: true,
			}
			r := run(t, cfg)
			model := analytic.Evaluate(&w, analytic.NewDesign(tech.OoO, cores, 4, noc.Crossbar)).IPC
			if errPct := math.Abs(r.AppIPC-model) / model; errPct > 0.15 {
				t.Errorf("%s at %d cores: sim %v vs model %v (%.0f%%)",
					w.Name, cores, r.AppIPC, model, errPct*100)
			}
		}
	}
}

// Interconnect ordering holds in simulation: ideal >= crossbar >= mesh.
func TestInterconnectOrdering(t *testing.T) {
	w := wl(t, workload.MediaStreaming) // the most latency-sensitive
	ipc := func(kind noc.Kind) float64 {
		cfg := baseCfg(t)
		cfg.Workload = w
		cfg.Net = noc.New(kind, cfg.Cores)
		return run(t, cfg).AppIPC
	}
	ideal, xbar, mesh := ipc(noc.Ideal), ipc(noc.Crossbar), ipc(noc.Mesh)
	if !(ideal >= xbar && xbar >= mesh) {
		t.Fatalf("ordering violated: ideal %v xbar %v mesh %v", ideal, xbar, mesh)
	}
}

// Media Streaming — the thesis's most latency-sensitive workload (lowest
// ILP/MLP, highest L1 miss rate) — must lose more to a slow fabric than
// SAT Solver, the least access-intensive one (Section 4.4.1).
func TestLatencySensitivityOrdering(t *testing.T) {
	rel := func(name string) float64 {
		w := wl(t, name)
		fast := run(t, Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Ideal, 16), DisableSWScaling: true})
		slow := run(t, Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Mesh, 64), DisableSWScaling: true}) // long-latency fabric
		return slow.AppIPC / fast.AppIPC
	}
	if ms, sat := rel(workload.MediaStreaming), rel(workload.SATSolver); ms >= sat {
		t.Fatalf("Media Streaming retained %v of its performance, SAT Solver %v; expected MS to suffer more", ms, sat)
	}
}

// Software scalability derating: beyond the workload's knee, measured
// aggregate IPC grows sublinearly vs the derating-free run.
func TestSWScaling(t *testing.T) {
	w := wl(t, workload.DataServing) // knee at 16 cores
	with := run(t, Config{Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 4,
		Net: noc.New(noc.Crossbar, 64)})
	without := run(t, Config{Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 4,
		Net: noc.New(noc.Crossbar, 64), DisableSWScaling: true})
	if with.AppIPC >= without.AppIPC {
		t.Fatalf("derating absent: %v >= %v", with.AppIPC, without.AppIPC)
	}
	ratio := with.AppIPC / without.AppIPC
	if want := w.SWEfficiency(64); math.Abs(ratio-want) > 0.02 {
		t.Fatalf("derating %v, want %v", ratio, want)
	}
}

// Snoop rates land near the Figure 4.3 calibration targets.
func TestSnoopRates(t *testing.T) {
	for _, w := range workload.Suite() {
		cores := 64
		if w.ScaleLimit < cores {
			cores = w.ScaleLimit
		}
		cfg := Config{Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: 8,
			Net: noc.New(noc.Mesh, 64), MemChannels: 4}
		r := run(t, cfg)
		if r.SnoopRatePct < w.SnoopPct*0.4 || r.SnoopRatePct > w.SnoopPct*1.9 {
			t.Errorf("%s: snoop rate %.2f%%, target %.2f%%", w.Name, r.SnoopRatePct, w.SnoopPct)
		}
	}
}

// Off-chip bandwidth is bounded by the provisioned channels.
func TestBandwidthRespectChannels(t *testing.T) {
	w := wl(t, workload.SATSolver)
	cfg := Config{Workload: w, CoreType: tech.OoO, Cores: 32, LLCMB: 2,
		Net: noc.New(noc.Crossbar, 32), MemChannels: 1}
	r := run(t, cfg)
	if r.OffChipGBs > tech.DDR3UsableGBs*1.05 {
		t.Fatalf("one channel supplied %v GB/s, cap %v", r.OffChipGBs, tech.DDR3UsableGBs)
	}
}

// Channel starvation throttles performance.
func TestChannelThrottling(t *testing.T) {
	w := wl(t, workload.SATSolver)
	mk := func(ch int) float64 {
		return run(t, Config{Workload: w, CoreType: tech.OoO, Cores: 32, LLCMB: 2,
			Net: noc.New(noc.Crossbar, 32), MemChannels: ch}).AppIPC
	}
	if starved, fed := mk(1), mk(4); starved >= fed {
		t.Fatalf("starved %v >= fed %v", starved, fed)
	}
}

func TestMissRatioMatchesCurve(t *testing.T) {
	w := wl(t, workload.MapReduceC)
	cfg := baseCfg(t)
	cfg.Workload = w
	r := run(t, cfg)
	acc := w.AccessBreakdown(tech.OoO, 4, 16)
	want := acc.MemMPKITotal() / acc.Total()
	if math.Abs(r.MissRatio()-want)/want > 0.2 {
		t.Fatalf("miss ratio %v, curve %v", r.MissRatio(), want)
	}
}

func TestRunSampled(t *testing.T) {
	cfg := baseCfg(t)
	results, acc, err := RunSampled(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 || acc.N() != 5 {
		t.Fatalf("samples: %d, acc %d", len(results), acc.N())
	}
	// SimFlex bound: 95% CI within a few percent of the mean.
	if acc.RelativeError95() > 0.04 {
		t.Fatalf("relative error %v exceeds 4%%", acc.RelativeError95())
	}
	if _, _, err := RunSampled(cfg, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
}

// Parallel sampling must match a serial per-seed loop exactly: same
// per-sample results in seed order, same accumulator, independent of
// the worker count.
func TestSampledParallelMatchesSerial(t *testing.T) {
	cfg := baseCfg(t)
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 5000
	const n = 6

	// Serial reference: one Run per derived seed, in order.
	var serial []Result
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = sampleSeed(cfg.Seed, i)
		serial = append(serial, run(t, c))
	}

	for _, workers := range []int{1, 8} {
		ctx := engine.WithEngine(context.Background(), engine.New(workers))
		results, acc, err := RunSampledContext(ctx, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != n || acc.N() != n {
			t.Fatalf("workers=%d: %d results, acc %d", workers, len(results), acc.N())
		}
		for i := range results {
			if results[i] != serial[i] {
				t.Fatalf("workers=%d: sample %d diverged:\n%+v\n%+v",
					workers, i, results[i], serial[i])
			}
		}
	}
}

// Sampling fans out through the engine memo: re-sampling the same
// configuration on one engine costs zero new simulations.
func TestSampledMemoized(t *testing.T) {
	cfg := baseCfg(t)
	cfg.WarmupCycles, cfg.MeasureCycles = 1000, 2000
	e := engine.New(2)
	ctx := engine.WithEngine(context.Background(), e)
	first, _, err := RunSampledContext(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := RunSampledContext(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("memoized sample %d differs", i)
		}
	}
	if st := e.Stats(); st.Misses != 3 {
		t.Fatalf("%d simulations ran, want 3", st.Misses)
	}
}

func TestBankRule(t *testing.T) {
	cfg := baseCfg(t)
	if b := cfg.banksFor(); b != 4 {
		t.Fatalf("crossbar 16c: %d banks, want 4", b)
	}
	cfg.Net = noc.New(noc.Mesh, 16)
	if b := cfg.banksFor(); b != 16 {
		t.Fatalf("mesh 16c: %d banks, want 16", b)
	}
	cfg.Net = noc.New(noc.NOCOut, 64)
	if b := cfg.banksFor(); b != 16 {
		t.Fatalf("NOC-Out: %d banks, want 16 (2 per LLC tile)", b)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{Workload: wl(t, workload.WebSearch), CoreType: tech.OoO, Cores: 8, LLCMB: 2}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Net.Kind != noc.Crossbar || cfg.MemChannels < 1 ||
		cfg.WarmupCycles <= 0 || cfg.MeasureCycles <= 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestDirectoryActivityVisible(t *testing.T) {
	cfg := baseCfg(t)
	cfg.Workload = wl(t, workload.WebFrontend) // highest sharing
	r := run(t, cfg)
	if r.DirectoryBlocks == 0 {
		t.Fatal("directory tracked no blocks despite shared accesses")
	}
	if r.SnoopRatePct <= 0 {
		t.Fatal("no snoops measured on the most share-heavy workload")
	}
}

// Warmup must not be measured: doubling warmup leaves measured cycles
// and the IPC definition unchanged.
func TestWarmupExcluded(t *testing.T) {
	cfg := baseCfg(t)
	cfg.WarmupCycles = 5000
	a := run(t, cfg)
	cfg.WarmupCycles = 40000
	b := run(t, cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("measured cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if math.Abs(a.AppIPC-b.AppIPC)/a.AppIPC > 0.1 {
		t.Fatalf("warmup leaked into measurement: %v vs %v", a.AppIPC, b.AppIPC)
	}
}
