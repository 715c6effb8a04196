package core

import (
	"math"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var ws = workload.Suite()

func podO() Pod { return Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar} }
func podI() Pod { return Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar} }

// The thesis's pod footprints: 92mm2 (OoO) and ~52mm2 (in-order) at 40nm
// drawing 20W and 17W respectively (Sections 3.4.2-3.4.3).
func TestPodAreaPower(t *testing.T) {
	n := tech.N40()
	if a := podO().Area(n); math.Abs(a-92) > 1e-9 {
		t.Fatalf("OoO pod area %v, want 92", a)
	}
	if p := podO().Power(n); math.Abs(p-20) > 1e-9 {
		t.Fatalf("OoO pod power %v, want 20", p)
	}
	if a := podI().Area(n); math.Abs(a-51.6) > 1e-9 {
		t.Fatalf("in-order pod area %v, want 51.6", a)
	}
	if p := podI().Power(n); math.Abs(p-17.36) > 1e-9 {
		t.Fatalf("in-order pod power %v, want 17.36", p)
	}
}

func TestPodString(t *testing.T) {
	if s := podO().String(); s != "16c-4MB" {
		t.Fatalf("pod label %q", s)
	}
}

// Figure 3.4/3.5: the OoO design space peaks at 32 cores with a mid-size
// LLC on a crossbar, and the 16-core/4MB pod is within 5% of the peak.
func TestOoOSweepShape(t *testing.T) {
	space := SweepSpace{Core: tech.OoO, MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8}, Nets: []noc.Kind{noc.Crossbar}}
	pts := Sweep(space, tech.N40(), ws)
	opt, err := Optimal(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The thesis finds a nearly flat peak in the 16-32 core, 2-4MB
	// region and adopts the 16-core/4MB pod, which sits within 5% of
	// the true optimum (Section 3.4.2). Assert exactly those facts.
	if opt.Pod.Cores < 16 || opt.Pod.Cores > 32 {
		t.Errorf("optimal pod %v outside the thesis's 16-32 core region", opt.Pod)
	}
	if opt.Pod.LLCMB < 2 || opt.Pod.LLCMB > 4 {
		t.Errorf("optimal LLC %v outside the thesis's 2-4MB region", opt.Pod.LLCMB)
	}
	thesisPod := Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	for _, p := range pts {
		if p.Pod == thesisPod && p.PD < opt.PD*0.95 {
			t.Errorf("16c-4MB pod PD %v more than 5%% below optimum %v", p.PD, opt.PD)
		}
	}
	sel, err := NearOptimal(pts, 0.05, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pod.Cores != 16 {
		t.Errorf("selected pod %v, thesis adopts 16 cores", sel.Pod)
	}
}

// Figure 3.6: in-order pods peak at 32 cores and 2MB.
func TestInOrderSweepShape(t *testing.T) {
	space := SweepSpace{Core: tech.InOrder, MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8}, Nets: []noc.Kind{noc.Crossbar}}
	pts := Sweep(space, tech.N40(), ws)
	sel, err := NearOptimal(pts, 0.05, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pod.Cores != 32 || sel.Pod.LLCMB != 2 {
		t.Errorf("in-order pod %v, thesis: 32c-2MB", sel.Pod)
	}
}

func TestSweepCoversSpace(t *testing.T) {
	space := DefaultSweep(tech.OoO)
	pts := Sweep(space, tech.N40(), ws)
	want := len(space.Nets) * len(space.LLCSizes) * 9 // 1..256 in doublings
	if len(pts) != want {
		t.Fatalf("sweep produced %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.PD <= 0 || p.IPC <= 0 {
			t.Fatalf("non-positive metrics at %v", p.Pod)
		}
	}
}

func TestOptimalEmpty(t *testing.T) {
	if _, err := Optimal(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := NearOptimal(nil, 0.05, 16); err == nil {
		t.Fatal("empty near-optimal accepted")
	}
}

func TestNearOptimalUnsatisfiable(t *testing.T) {
	pts := []SweepPoint{
		{Pod: Pod{Cores: 64}, PD: 1.0},
		{Pod: Pod{Cores: 32}, PD: 0.5},
	}
	if _, err := NearOptimal(pts, 0.05, 32); err == nil {
		t.Fatal("no pod within 5% under 32 cores, but no error")
	}
}

// The headline composition results (Table 3.2): 2 OoO pods with 3
// channels at 40nm; 3 in-order pods with 6 channels; 7 OoO pods at 20nm;
// 6 in-order pods at 20nm, bandwidth-limited.
func TestComposeMatchesThesis(t *testing.T) {
	cases := []struct {
		node     tech.Node
		pod      Pod
		pods, mc int
		limit    LimitingFactor
	}{
		{tech.N40(), podO(), 2, 3, AreaLimited},
		{tech.N40(), podI(), 3, 6, BandwidthLimited},
		{tech.N20(), podO(), 7, 4, AreaLimited},
		{tech.N20(), podI(), 6, 6, BandwidthLimited},
	}
	for _, c := range cases {
		chip, err := Compose(c.node, c.pod, ws)
		if err != nil {
			t.Fatal(err)
		}
		if chip.Pods != c.pods || chip.MemChannels != c.mc || chip.Limit != c.limit {
			t.Errorf("%s %v: pods=%d mc=%d limit=%s, want pods=%d mc=%d limit=%s",
				c.node.Name, c.pod, chip.Pods, chip.MemChannels, chip.Limit,
				c.pods, c.mc, c.limit)
		}
		if chip.DieArea() > c.node.MaxDieAreaMM2 || chip.Power() > c.node.TDPWatts {
			t.Errorf("%s %v: budgets exceeded: %vmm2 %vW", c.node.Name, c.pod,
				chip.DieArea(), chip.Power())
		}
	}
}

// Pod replication preserves per-pod optimality: chip IPC is exactly
// pods x pod IPC, and chip PD sits below pod PD only by the shared
// interface overhead.
func TestCompositionLinearity(t *testing.T) {
	n := tech.N40()
	chip, err := Compose(n, podO(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := chip.IPC(), float64(chip.Pods)*podO().IPC(ws); math.Abs(got-want) > 1e-9 {
		t.Fatalf("chip IPC %v != pods x pod IPC %v", got, want)
	}
	if chip.PD() >= podO().PD(n, ws) {
		t.Fatal("chip PD should be diluted by interface overheads")
	}
	if chip.Cores() != chip.Pods*16 || chip.LLCMB() != float64(chip.Pods)*4 {
		t.Fatal("aggregate counts")
	}
}

func TestComposeRejectsOversizedPod(t *testing.T) {
	huge := Pod{Core: tech.Conventional, Cores: 64, LLCMB: 64, Net: noc.Crossbar}
	if _, err := Compose(tech.N40(), huge, ws); err == nil {
		t.Fatal("64 conventional cores cannot fit a 280mm2 die")
	}
}

func TestPerfPerWattPositive(t *testing.T) {
	chip, err := Compose(tech.N40(), podI(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if chip.PerfPerWatt() <= 0 {
		t.Fatal("non-positive perf/Watt")
	}
}

// The 20nm Scale-Out chips improve PD over their 40nm versions by
// roughly the technology factor (thesis: 3.7x OoO, 2.8x in-order).
func TestTechnologyScalingGain(t *testing.T) {
	for _, pod := range []Pod{podO(), podI()} {
		c40, err := Compose(tech.N40(), pod, ws)
		if err != nil {
			t.Fatal(err)
		}
		c20, err := Compose(tech.N20(), pod, ws)
		if err != nil {
			t.Fatal(err)
		}
		gain := c20.PD() / c40.PD()
		if gain < 2.2 || gain > 4.3 {
			t.Errorf("%v: 40->20nm PD gain %v outside the thesis's 2.8-3.7x window", pod, gain)
		}
	}
}

// WireDelta flows through to the analytic design.
func TestWireDeltaPlumbing(t *testing.T) {
	p := podO()
	base := p.IPC(ws)
	p.WireDelta = -2
	if p.IPC(ws) <= base {
		t.Fatal("negative wire delta did not improve performance")
	}
	p.WireDelta = +5
	if p.IPC(ws) >= base {
		t.Fatal("positive wire delta did not hurt performance")
	}
}
