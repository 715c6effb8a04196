package sim

import (
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Golden kernel-equivalence test: the event-scheduled kernel must be
// byte-identical to the lock-step seed kernel — same Result struct,
// field for field — across core counts, core types, NoC kinds
// (including NOC-Out's halved bank accept rate), channel-starved
// memory systems, and seeds. Every divergence here is a real bug: the
// two kernels run the same per-core code, so only scheduling can
// differ.
func TestKernelEquivalence(t *testing.T) {
	ws := workload.Suite()
	short := func(c Config) Config {
		c.WarmupCycles, c.MeasureCycles = 4000, 10000
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"1core-crossbar", short(Config{Workload: ws[0], CoreType: tech.OoO, Cores: 1, LLCMB: 1})},
		{"4core-inorder", short(Config{Workload: ws[1], CoreType: tech.InOrder, Cores: 4, LLCMB: 2})},
		{"16core-crossbar", short(Config{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Crossbar, 16)})},
		{"32core-inorder-mesh", short(Config{Workload: ws[2], CoreType: tech.InOrder, Cores: 32, LLCMB: 2,
			Net: noc.New(noc.Mesh, 32)})},
		{"64core-mesh", short(Config{Workload: ws[0], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
			Net: noc.New(noc.Mesh, 64), MemChannels: 4})},
		{"64core-nocout", short(Config{Workload: ws[3%len(ws)], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
			Net: noc.New(noc.NOCOut, 64)})},
		{"channel-starved", short(Config{Workload: ws[0], CoreType: tech.OoO, Cores: 32, LLCMB: 2,
			Net: noc.New(noc.Crossbar, 32), MemChannels: 1})},
		{"seeded", short(Config{Workload: ws[1], CoreType: tech.OoO, Cores: 16, LLCMB: 4, Seed: 99})},
		{"default-cycles", Config{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			event, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			lockstep, err := runLockstep(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if event != lockstep {
				t.Fatalf("kernels diverged:\nevent:    %+v\nlockstep: %+v", event, lockstep)
			}
		})
	}
}

// The same equivalence must hold for the structural simulator, whose
// emergent cache behaviour (L1 MPKI, MSHR stalls) is far more sensitive
// to step ordering than the statistical draws.
func TestKernelEquivalenceStructural(t *testing.T) {
	ws := workload.Suite()
	short := func(c StructuralConfig) StructuralConfig {
		c.WarmupCycles, c.MeasureCycles = 8000, 10000
		return c
	}
	cases := []struct {
		name string
		cfg  StructuralConfig
	}{
		{"16core-ooo", short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4})},
		{"8core-inorder", short(StructuralConfig{Workload: ws[1], CoreType: tech.InOrder, Cores: 8, LLCMB: 2})},
		{"nocout-banks", short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 32, LLCMB: 8,
			Net: noc.New(noc.NOCOut, 32)})},
		{"tiny-mshr", short(StructuralConfig{Workload: ws[2], CoreType: tech.OoO, Cores: 8, LLCMB: 2,
			L1MSHRs: 2})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			event, err := RunStructural(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			lockstep, err := runStructuralLockstep(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if event != lockstep {
				t.Fatalf("kernels diverged:\nevent:    %+v\nlockstep: %+v", event, lockstep)
			}
		})
	}
}

// The wheel must drain same-cycle wakeups in ascending core order and
// deliver far wakeups (beyond the wheel horizon, which alias buckets
// and lap) at exactly their cycle.
func TestWakeWheelOrdering(t *testing.T) {
	const cores = 130 // three bitmap words, two of them partial
	w := newWakeWheel(cores)
	type ev struct {
		at   int64
		core int
	}
	// Schedule a spread: same-cycle groups, horizon-aliased far events.
	var want []ev
	for i := 0; i < cores; i++ {
		at := int64(1 + (i%7)*wheelSpan) // cycles 1, 513, 1025, ... alias bucket 1
		w.schedule(i, at)
		want = append(want, ev{at, i})
	}
	// Expected order: by (at, core).
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[j].at < want[i].at || (want[j].at == want[i].at && want[j].core < want[i].core) {
				want[i], want[j] = want[j], want[i]
			}
		}
	}

	var got []ev
	end := int64(7*wheelSpan + 2)
	for tcyc := int64(0); tcyc < end; tcyc++ {
		bucket := w.bucket(tcyc)
		for wi := range bucket {
			word := bucket[wi]
			if word == 0 {
				continue
			}
			bucket[wi] = 0
			for word != 0 {
				core := wi<<6 + trailingZeros(word)
				word &= word - 1
				if w.wakeAt[core] > tcyc {
					bucket[wi] |= 1 << (core & 63)
					continue
				}
				got = append(got, ev{tcyc, core})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d wakeups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wakeup %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// nextWake drains whole cycles of stall debt exactly as the lock-step
// prologue does, and defers to blockedUntil when it is later.
func TestNextWake(t *testing.T) {
	cases := []struct {
		debt     float64
		blocked  int64
		now      int64
		wantWake int64
		wantDebt float64
	}{
		{0, 0, 10, 11, 0},     // free-running: next cycle
		{0.5, 0, 10, 11, 0.5}, // sub-cycle debt: no drain
		{3.5, 0, 10, 14, 0.5}, // 3 drain cycles then active
		{2, 0, 10, 13, 0},     // integral debt drains fully
		{0, 30, 10, 30, 0},    // blocked dominates
		{10, 14, 10, 21, 0},   // drain outlasts the block
		{2, 40, 10, 40, 0},    // block outlasts the drain
	}
	for i, tc := range cases {
		c := coreState{stallDebt: tc.debt, blockedUntil: tc.blocked}
		if got := c.nextWake(tc.now); got != tc.wantWake {
			t.Errorf("case %d: wake %d, want %d", i, got, tc.wantWake)
		}
		if c.stallDebt != tc.wantDebt {
			t.Errorf("case %d: residual debt %v, want %v", i, c.stallDebt, tc.wantDebt)
		}
	}
}

// Directory stats reset at the warmup/measure boundary while coherence
// state survives: measured snoop rates must not include warmup traffic,
// and a second reset-and-run window reproduces the first.
func TestResetStatsPreservesCoherence(t *testing.T) {
	cfg := Config{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2,
		WarmupCycles: 2000, MeasureCycles: 4000}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runEvent(&m.kernel, m, cfg.WarmupCycles)
	if m.dir.TrackedBlocks() == 0 {
		t.Fatal("warmup tracked no shared blocks")
	}
	tracked := m.dir.TrackedBlocks()
	m.resetStats()
	if m.dir.Lookups != 0 || m.dir.SnoopsSent != 0 || m.dir.SnoopAccesses != 0 ||
		m.dir.Invalidation != 0 || m.dir.Forwards != 0 {
		t.Fatal("directory stats survived resetStats")
	}
	if m.dir.TrackedBlocks() != tracked {
		t.Fatal("resetStats dropped coherence state")
	}
	if m.instructions != 0 || m.llcAccesses != 0 || m.llcMisses != 0 ||
		m.llcLatencySum != 0 || m.offChipLines != 0 {
		t.Fatal("kernel counters survived resetStats")
	}
}
