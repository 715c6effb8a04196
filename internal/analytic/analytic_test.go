package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func suite() []workload.Workload { return workload.Suite() }

func TestValidate(t *testing.T) {
	if err := NewDesign(tech.OoO, 16, 4, noc.Crossbar).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Design{Cores: 0, LLCMB: 4}).Validate(); err == nil {
		t.Fatal("0 cores accepted")
	}
	if err := (Design{Cores: 4, LLCMB: 0}).Validate(); err == nil {
		t.Fatal("0MB LLC accepted")
	}
}

func TestBankRule(t *testing.T) {
	// UCA: one bank per four cores.
	d := NewDesign(tech.OoO, 16, 4, noc.Crossbar)
	if d.BankMB() != 1 {
		t.Fatalf("crossbar 16c/4MB bank = %vMB, want 1", d.BankMB())
	}
	// NUCA: one bank (slice) per tile.
	d = NewDesign(tech.OoO, 16, 4, noc.Mesh)
	if d.BankMB() != 0.25 {
		t.Fatalf("mesh 16c/4MB slice = %vMB, want 0.25", d.BankMB())
	}
	// Even a single-core design banks its shared cache at least 4 ways.
	d = NewDesign(tech.OoO, 1, 4, noc.Ideal)
	if d.BankMB() != 1 {
		t.Fatalf("single-core UCA bank = %vMB, want 1 (minimum 4 banks)", d.BankMB())
	}
}

func TestIPCBounds(t *testing.T) {
	types := []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder}
	kinds := []noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh}
	ws := suite()
	f := func(wi, ti, ki, cx uint8, llcX uint8) bool {
		w := ws[int(wi)%len(ws)]
		ct := types[int(ti)%len(types)]
		kind := kinds[int(ki)%len(kinds)]
		cores := 1 << (cx % 9) // 1..256
		llc := 1 + float64(llcX%32)
		ipc := Evaluate(&w, NewDesign(ct, cores, llc, kind)).PerCoreIPC
		return ipc > 0 && ipc < w.BaseIPC.At(ct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestChipIPCIsCoresTimesPerCore(t *testing.T) {
	d := NewDesign(tech.OoO, 32, 8, noc.Mesh)
	for _, w := range suite() {
		p := Evaluate(&w, d)
		if got, want := p.IPC, 32*p.PerCoreIPC; math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: chip %v != 32 x %v", w.Name, got, want)
		}
	}
}

// The core ordering the thesis relies on: conventional cores are fastest
// per core; in-order slowest — at identical cache/network conditions.
func TestCoreTypeOrdering(t *testing.T) {
	for _, w := range suite() {
		conv := Evaluate(&w, NewDesign(tech.Conventional, 4, 4, noc.Crossbar)).PerCoreIPC
		ooo := Evaluate(&w, NewDesign(tech.OoO, 4, 4, noc.Crossbar)).PerCoreIPC
		io := Evaluate(&w, NewDesign(tech.InOrder, 4, 4, noc.Crossbar)).PerCoreIPC
		if !(conv > ooo && ooo > io) {
			t.Errorf("%s: ordering conv %v > ooo %v > io %v violated", w.Name, conv, ooo, io)
		}
	}
}

// Faster interconnects never hurt: ideal >= crossbar at every point.
func TestIdealAtLeastCrossbar(t *testing.T) {
	for _, w := range suite() {
		for c := 1; c <= 256; c *= 4 {
			ideal := Evaluate(&w, NewDesign(tech.OoO, c, 4, noc.Ideal)).PerCoreIPC
			xbar := Evaluate(&w, NewDesign(tech.OoO, c, 4, noc.Crossbar)).PerCoreIPC
			if ideal < xbar-1e-12 {
				t.Errorf("%s at %d cores: ideal %v < crossbar %v", w.Name, c, ideal, xbar)
			}
		}
	}
}

// Figure 2.3's contrast: per-core performance under a mesh degrades much
// faster with core count than under the ideal interconnect.
func TestDistanceEffect(t *testing.T) {
	ws := suite()
	ideal1 := EvaluateSuite(ws, NewDesign(tech.OoO, 1, 4, noc.Ideal)).PerCoreIPC
	ideal256 := EvaluateSuite(ws, NewDesign(tech.OoO, 256, 4, noc.Ideal)).PerCoreIPC
	mesh256 := EvaluateSuite(ws, NewDesign(tech.OoO, 256, 4, noc.Mesh)).PerCoreIPC
	idealDrop := 1 - ideal256/ideal1
	meshDrop := 1 - mesh256/ideal1
	if idealDrop > 0.35 {
		t.Errorf("ideal-interconnect sharing drop %v too steep (thesis: small)", idealDrop)
	}
	if meshDrop < idealDrop+0.1 {
		t.Errorf("mesh drop %v not clearly steeper than ideal drop %v", meshDrop, idealDrop)
	}
}

func TestLatencyAccounting(t *testing.T) {
	d := NewDesign(tech.OoO, 16, 4, noc.Crossbar)
	lllc := d.LLCLatency()
	// bank(1MB)=4 + crossbar16(5) + reply serialization(2 at 256b).
	if want := 4.0 + 5 + 2; math.Abs(lllc-want) > 1e-9 {
		t.Fatalf("LLC latency %v, want %v", lllc, want)
	}
	if d.MemLatency() <= lllc {
		t.Fatal("memory latency not above LLC latency")
	}
	if d.MemLatency() < float64(tech.MemoryLatencyCycles) {
		t.Fatal("memory latency below raw DRAM latency")
	}
}

// Bandwidth anchors from the thesis (Sections 3.4.2/3.4.3): the OoO pod
// demands ~9.4GB/s worst-case; the in-order pod ~15GB/s; both fit the
// channel provisioning that yields 3 and 6 DDR3 channels at 40nm.
func TestPodBandwidthAnchors(t *testing.T) {
	ws := suite()
	ooo := EvaluateSuite(ws, NewDesign(tech.OoO, 16, 4, noc.Crossbar)).PeakGBs
	if ooo < 7.5 || ooo > 10.5 {
		t.Errorf("OoO pod worst-case demand %v GB/s, thesis ~9.4", ooo)
	}
	io := EvaluateSuite(ws, NewDesign(tech.InOrder, 32, 2, noc.Crossbar)).PeakGBs
	if io < 15.4 || io > 18 {
		t.Errorf("in-order pod worst-case demand %v GB/s, thesis ~15-17", io)
	}
}

func TestSuiteMeansEmptyAndOrder(t *testing.T) {
	d := NewDesign(tech.OoO, 8, 4, noc.Crossbar)
	if EvaluateSuite(nil, d) != (Perf{}) {
		t.Fatal("empty suite should yield zero")
	}
	ws := suite()
	perf := EvaluateSuite(ws, d)
	if got, want := perf.IPC, 8*perf.PerCoreIPC; math.Abs(got-want) > 1e-9 {
		t.Fatalf("suite means inconsistent: %v vs %v", got, want)
	}
}

func TestOffChipDemandPositive(t *testing.T) {
	d := NewDesign(tech.InOrder, 32, 2, noc.Crossbar)
	for _, w := range suite() {
		acc := w.AccessBreakdown(d.Core, d.LLCMB, d.Cores)
		if w.OffChipGBs(acc, d.Cores, Evaluate(&w, d).PerCoreIPC) <= 0 {
			t.Errorf("%s: non-positive demand", w.Name)
		}
	}
}

// Larger LLCs reduce off-chip demand (the fixed-distance 3D argument).
func TestDemandFallsWithCapacity(t *testing.T) {
	ws := suite()
	small := EvaluateSuite(ws, NewDesign(tech.InOrder, 64, 2, noc.Crossbar)).PeakGBs
	large := EvaluateSuite(ws, NewDesign(tech.InOrder, 64, 8, noc.Crossbar)).PeakGBs
	if large >= small {
		t.Fatalf("demand did not fall with capacity: %v -> %v", small, large)
	}
}
