package workload

import (
	"math"
	"testing"
	"testing/quick"

	"scaleout/internal/tech"
)

func TestSuiteValid(t *testing.T) {
	ws := Suite()
	if len(ws) != 7 {
		t.Fatalf("suite has %d workloads, want 7", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != 7 || names[0] != DataServing || names[6] != WebSearch {
		t.Fatalf("names: %v", names)
	}
	w, ok := ByName(MediaStreaming)
	if !ok || w.Name != MediaStreaming {
		t.Fatal("ByName failed for Media Streaming")
	}
	if _, ok := ByName("SPECint"); ok {
		t.Fatal("ByName found a non-existent workload")
	}
}

// The suite is built once: Suite hands out one copy per call, and
// ByName and a caller's mutations never touch the shared models.
func TestSuiteIsBuiltOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Suite() }); n > 1 {
		t.Errorf("Suite makes %v allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName(WebSearch) }); n != 0 {
		t.Errorf("ByName makes %v allocations, want 0", n)
	}
	ws := Suite()
	ws[0].Name = "mutated"
	ws[0].BaseIPC.OoO = 0
	w, _ := ByName(DataServing)
	w.MLP.InOrder = 0
	if again := Suite(); again[0].Name != DataServing || again[0].BaseIPC.OoO == 0 {
		t.Fatal("mutating a Suite copy changed the suite")
	}
	if again, _ := ByName(DataServing); again.MLP.InOrder == 0 {
		t.Fatal("mutating a ByName copy changed the suite")
	}
}

func TestPerCoreAt(t *testing.T) {
	p := PerCore{Conventional: 1, OoO: 2, InOrder: 3}
	for ct, want := range map[tech.CoreType]float64{tech.Conventional: 1, tech.OoO: 2, tech.InOrder: 3, tech.CoreType(7): 0, tech.CoreType(-1): 0} {
		if got := p.At(ct); got != want {
			t.Errorf("At(%v) = %v, want %v", ct, got, want)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base, _ := ByName(WebSearch)
	bads := []func(*Workload){
		func(w *Workload) { w.Name = "" },
		func(w *Workload) { w.APKI = -1 },
		func(w *Workload) { w.APKI = 500 },
		func(w *Workload) { w.IFetchFrac = 1.5 },
		func(w *Workload) { w.MPKI1 = 0.1 }, // below floor
		func(w *Workload) { w.Alpha = 0 },
		func(w *Workload) { w.InstrFootprintMB = 0 },
		func(w *Workload) { w.ScaleLimit = 0 },
		func(w *Workload) { w.BaseIPC.OoO = 99 },
		func(w *Workload) { w.MLP.InOrder = 0.5 },
		func(w *Workload) { w.LLCOverlap.Conventional = 0 },
	}
	for i, mutate := range bads {
		w := base
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// Miss rate must fall monotonically with LLC capacity at fixed sharing.
func TestMissCurveMonotonicInCapacity(t *testing.T) {
	for _, w := range Suite() {
		prev := math.Inf(1)
		for _, mb := range []float64{1, 2, 4, 8, 16, 32} {
			m := w.AccessBreakdown(tech.OoO, mb, 4).MemMPKITotal()
			if m > prev+1e-12 {
				t.Errorf("%s: miss rate rose from %v to %v at %vMB", w.Name, prev, m, mb)
			}
			prev = m
		}
	}
}

// Miss rate must rise with the number of sharers at fixed capacity.
func TestMissCurveMonotonicInSharing(t *testing.T) {
	for _, w := range Suite() {
		prev := 0.0
		for _, cores := range []int{1, 4, 16, 64, 256} {
			m := w.AccessBreakdown(tech.OoO, 4, cores).MemMPKITotal()
			if m < prev-1e-12 {
				t.Errorf("%s: miss rate fell with more sharers at %d cores", w.Name, cores)
			}
			prev = m
		}
	}
}

// Section 2.1.4: with an ideal interconnect, sharing one LLC among 256
// cores costs only a modest per-core miss increase. Bound the capacity-
// pressure growth from 2 to 256 cores.
func TestSharingPressureIsMild(t *testing.T) {
	for _, w := range Suite() {
		m2 := w.AccessBreakdown(tech.OoO, 4, 2).MemMPKITotal()
		m256 := w.AccessBreakdown(tech.OoO, 4, 256).MemMPKITotal()
		if m256 > m2*4 {
			t.Errorf("%s: misses grew %vx from 2 to 256 sharers", w.Name, m256/m2)
		}
	}
}

// AccessBreakdown must decompose consistently: components non-negative
// and summing to the effective APKI.
func TestAccessBreakdownConsistency(t *testing.T) {
	ws := Suite()
	types := []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder}
	f := func(wi uint8, ti uint8, llcX uint8, coresX uint8) bool {
		w := ws[int(wi)%len(ws)]
		ct := types[int(ti)%len(types)]
		llc := 0.5 + float64(llcX%64)
		cores := 1 + int(coresX)%255
		a := w.AccessBreakdown(ct, llc, cores)
		if a.IHitAPKI < 0 || a.DHitAPKI < 0 || a.IMissMPKI < 0 || a.DMissMPKI < 0 {
			return false
		}
		return math.Abs(a.Total()-w.EffectiveAPKI(ct)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestConventionalAPKISmaller(t *testing.T) {
	for _, w := range Suite() {
		if w.EffectiveAPKI(tech.Conventional) >= w.EffectiveAPKI(tech.OoO) {
			t.Errorf("%s: 64KB-L1 conventional core should miss less than 32KB-L1 cores", w.Name)
		}
	}
}

func TestSWEfficiency(t *testing.T) {
	w, _ := ByName(DataServing) // SWScaleCores 16
	if w.SWEfficiency(8) != 1 || w.SWEfficiency(16) != 1 {
		t.Fatal("derating below the knee")
	}
	e32, e64 := w.SWEfficiency(32), w.SWEfficiency(64)
	if !(e64 < e32 && e32 < 1) {
		t.Fatalf("derating not monotonic: e32=%v e64=%v", e32, e64)
	}
	perfect := Workload{}
	if perfect.SWEfficiency(1000) != 1 {
		t.Fatal("zero SWScaleCores should mean no derating")
	}
}

func TestOffChipTraffic(t *testing.T) {
	w, _ := ByName(SATSolver)
	acc := w.AccessBreakdown(tech.OoO, 4, 16)
	gbs := w.OffChipGBs(acc, 16, 0.9)
	if gbs <= 0 || gbs > 50 {
		t.Fatalf("implausible off-chip traffic %v GB/s", gbs)
	}
	peak := w.PeakOffChipGBs(acc, 16, 0.9)
	if peak <= gbs {
		t.Fatal("peak demand should exceed the average")
	}
	// Traffic is linear in IPC at a fixed configuration.
	if d := w.OffChipGBs(acc, 16, 1.8); math.Abs(d-2*gbs) > 1e-9 {
		t.Fatalf("traffic not linear in IPC: %v vs 2x%v", d, gbs)
	}
	// More sharers at fixed capacity demand at least proportional traffic.
	if d := w.OffChipGBs(w.AccessBreakdown(tech.OoO, 4, 32), 32, 0.9); d < 2*gbs {
		t.Fatalf("32 sharers demand %v, below 2x the 16-sharer %v", d, gbs)
	}
}

// Figure 2.1 calibration: Media Streaming is the only workload with
// conventional-core base IPC below the rest; snoop percentages average
// near the thesis's 2.7%.
func TestCalibrationAnchors(t *testing.T) {
	ws := Suite()
	ms, _ := ByName(MediaStreaming)
	for _, w := range ws {
		if w.Name != MediaStreaming && w.BaseIPC.Conventional <= ms.BaseIPC.Conventional {
			t.Errorf("%s base IPC below Media Streaming", w.Name)
		}
	}
	sum := 0.0
	for _, w := range ws {
		sum += w.SnoopPct
	}
	if mean := sum / float64(len(ws)); mean < 2.0 || mean > 3.5 {
		t.Errorf("mean snoop target %v%%, thesis reports ~2.7%%", mean)
	}
}

// Scale limits follow Table 3.1.
func TestScaleLimits(t *testing.T) {
	want := map[string]int{
		DataServing: 64, MapReduceC: 64, MapReduceW: 64, SATSolver: 64,
		WebFrontend: 32, WebSearch: 32, MediaStreaming: 16,
	}
	for _, w := range Suite() {
		if w.ScaleLimit != want[w.Name] {
			t.Errorf("%s scale limit %d, want %d", w.Name, w.ScaleLimit, want[w.Name])
		}
	}
}

func TestDataCapacityFloor(t *testing.T) {
	w, _ := ByName(WebFrontend)
	if c := w.DataCapacityMB(0.25, 64); c < 0.01 {
		t.Fatalf("data capacity collapsed to %v", c)
	}
	if c1, c4 := w.DataCapacityMB(8, 1), w.DataCapacityMB(8, 64); c4 >= c1 {
		t.Fatal("sharing pressure did not reduce effective capacity")
	}
}
