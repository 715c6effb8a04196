package sim

import (
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/trace"
	"scaleout/internal/workload"
)

// freshStructMachine builds a machine for cfg with newStructMachine,
// bypassing the pool: the cold construction a recycled machine's reset
// must reproduce exactly. The machine never enters the pool.
func freshStructMachine(tb testing.TB, cfg StructuralConfig) *structMachine {
	tb.Helper()
	if err := cfg.applyDefaults(); err != nil {
		tb.Fatal(err)
	}
	m, err := newStructMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// drain empties the pool, so a test starts from a known state.
func (p *structMachinePool) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.free)
	p.order = p.order[:0]
	p.total = 0
}

// Golden pool-equivalence test: a machine recycled through the pool and
// reset for a new configuration must produce results byte-identical to
// a freshly constructed machine — across shape-sharing configurations
// (same geometry, different workload/seed/MSHRs trigger actual reuse)
// and back-to-back repeats. Any residue a reset leaves behind — a stale
// tag, stamp, RNG position, directory entry, or queue depth — shows up
// here as a field-level divergence.
func TestMachinePoolEquivalence(t *testing.T) {
	ws := workload.Suite()
	short := func(c StructuralConfig) StructuralConfig {
		c.WarmupCycles, c.MeasureCycles = 8000, 10000
		return c
	}
	// Consecutive entries share a shape where possible so the pooled
	// pass genuinely reuses machines rather than always building fresh.
	cfgs := []StructuralConfig{
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[1], CoreType: tech.OoO, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2, Seed: 42}),
		short(StructuralConfig{Workload: ws[2], CoreType: tech.InOrder, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Mesh, 16)}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2}), // repeat of [0]
	}

	// Fresh baseline: every run constructs a machine outside the pool.
	fresh := make([]StructuralResult, len(cfgs))
	for i, cfg := range cfgs {
		r, err := freshStructMachine(t, cfg).simulate()
		if err != nil {
			t.Fatalf("fresh cfg %d: %v", i, err)
		}
		fresh[i] = r
	}

	// Pooled pass: same sequence, from an empty pool, machines recycled
	// in between.
	machinePool.drain()
	for i, cfg := range cfgs {
		r, err := RunStructural(cfg)
		if err != nil {
			t.Fatalf("pooled cfg %d: %v", i, err)
		}
		if r != fresh[i] {
			t.Fatalf("pooled run %d diverged:\npooled: %+v\nfresh:  %+v", i, r, fresh[i])
		}
	}

	// The shape-sharing prefix must actually have recycled: after the
	// sequence the pool holds fewer machines than configurations run.
	machinePool.mu.Lock()
	total := machinePool.total
	machinePool.mu.Unlock()
	if total >= len(cfgs) {
		t.Fatalf("pool holds %d machines after %d runs; reuse never happened", total, len(cfgs))
	}
	if total == 0 {
		t.Fatal("pool empty after pooled runs")
	}
}

// A pooled machine must also behave identically on the lock-step
// reference kernel, which shares the reset path.
func TestMachinePoolEquivalenceLockstep(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2,
		WarmupCycles: 6000, MeasureCycles: 8000}
	fresh, err := freshStructMachine(t, cfg).simulateLockstep()
	if err != nil {
		t.Fatal(err)
	}
	machinePool.drain()
	for i := 0; i < 3; i++ {
		pooled, err := runStructuralLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pooled != fresh {
			t.Fatalf("pooled lockstep run %d diverged:\npooled: %+v\nfresh:  %+v", i, pooled, fresh)
		}
	}
}

// The pool must never retain more machines than its global bound, and
// eviction must leave the bookkeeping consistent.
func TestMachinePoolBound(t *testing.T) {
	machinePool.drain()
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1,
		WarmupCycles: 500, MeasureCycles: 500}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	// Hold more machines live than the pool bound, then release all.
	n := machinePool.limit + 3
	ms := make([]*structMachine, 0, n)
	for i := 0; i < n; i++ {
		m, err := acquireStructMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		machinePool.put(m)
	}
	machinePool.mu.Lock()
	total, orderLen := machinePool.total, len(machinePool.order)
	listLen := 0
	for _, l := range machinePool.free {
		listLen += len(l)
	}
	machinePool.mu.Unlock()
	if total > machinePool.limit {
		t.Fatalf("pool retains %d machines, limit %d", total, machinePool.limit)
	}
	if total != orderLen || total != listLen {
		t.Fatalf("pool bookkeeping inconsistent: total %d, order %d, listed %d", total, orderLen, listLen)
	}
}

// Regression test for the MSHR-full hang: when the MSHR file reports
// full but no miss is outstanding (an invariant violation — pending
// mirrors the MSHR file), the earliest-completion lookup used to leave
// blockedUntil at the far-future sentinel and the core hung silently
// forever. structMiss must record an explicit error instead, and the
// run must surface it.
func TestStructMissMSHRFullGuard(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 2, LLCMB: 1,
		L1MSHRs: 2, WarmupCycles: 100, MeasureCycles: 100}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newStructMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &m.cores[0]
	// Corrupt the invariant: fill the MSHR file without tracking any
	// pending completion.
	c.mshr.Allocate(1001)
	c.mshr.Allocate(1002)
	if !c.mshr.Full() {
		t.Fatal("MSHR not full after filling")
	}
	done, stalled := m.structMiss(0, c, trace.Access{Block: 2002})
	if !stalled {
		t.Fatalf("structMiss did not stall on a full MSHR (done=%d)", done)
	}
	if m.err == nil {
		t.Fatal("structMiss left no error for a full MSHR with empty pending")
	}
	if c.blockedUntil <= m.now {
		t.Fatal("core not parked after the invariant violation")
	}
	// The healthy path — pending non-empty — must keep stalling
	// without an error.
	m2, err := newStructMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &m2.cores[0]
	c2.mshr.Allocate(1001)
	c2.mshr.Allocate(1002)
	c2.pending = append(c2.pending, pendingMiss{block: 1001, done: 77})
	c2.pendingMin = 77
	done, stalled = m2.structMiss(0, c2, trace.Access{Block: 2002})
	if !stalled || done != 77 {
		t.Fatalf("healthy MSHR-full stall = (%d, %v), want (77, true)", done, stalled)
	}
	if m2.err != nil {
		t.Fatalf("healthy stall produced an error: %v", m2.err)
	}
}

// The warm-start image cache must evict FIFO past its bound — each
// image clones a full LLC, so unbounded retention would let a
// geometry-diverse sweep pin arbitrary memory.
func TestPrefillImageCacheBound(t *testing.T) {
	c := &prefillImageCache{images: map[prefillKey]*prefillImage{}, limit: 2}
	k := func(i int) prefillKey { return prefillKey{instrFootprintMB: float64(i), banks: 1, bankBytes: 1} }
	for i := 1; i <= 3; i++ {
		c.store(k(i), &prefillImage{})
	}
	if len(c.images) != 2 || len(c.order) != 2 {
		t.Fatalf("cache holds %d images / %d order entries, limit 2", len(c.images), len(c.order))
	}
	if _, ok := c.load(k(1)); ok {
		t.Fatal("oldest image survived eviction")
	}
	for i := 2; i <= 3; i++ {
		if _, ok := c.load(k(i)); !ok {
			t.Fatalf("image %d missing", i)
		}
	}
	// Re-storing an existing key must not duplicate its order entry.
	c.store(k(3), &prefillImage{})
	if len(c.order) != 2 {
		t.Fatalf("duplicate store grew order to %d", len(c.order))
	}
}

// The warm-start image cache must hold an entry after a structural run
// and replay it into a pooled machine exactly (covered value-wise by
// TestMachinePoolEquivalence; this pins the mechanism itself).
func TestPrefillImageMemoized(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1,
		WarmupCycles: 500, MeasureCycles: 500}
	if _, err := RunStructural(cfg); err != nil {
		t.Fatal(err)
	}
	cc, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	banks := cc.base().banksFor()
	key := prefillKey{
		instrFootprintMB: cc.Workload.InstrFootprintMB,
		banks:            banks,
		bankBytes:        int(cc.LLCMB * 1024 * 1024 / float64(banks)),
	}
	img, ok := prefillImages.load(key)
	if !ok {
		t.Fatal("no warm-start image memoized after a structural run")
	}
	if len(img.llc) != banks || len(img.victims) != banks {
		t.Fatalf("image has %d/%d banks, want %d", len(img.llc), len(img.victims), banks)
	}
	occ := 0
	for _, b := range img.llc {
		occ += b.Occupancy()
	}
	if occ == 0 {
		t.Fatal("memoized warm-start image is empty")
	}
}
