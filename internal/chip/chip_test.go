package chip

import (
	"math"
	"testing"

	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var ws = workload.Suite()

func catalog40() []Spec { return Catalog(tech.N40(), ws) }

func find(t *testing.T, specs []Spec, org Organization, core tech.CoreType) Spec {
	t.Helper()
	s, ok := Find(specs, org, core)
	if !ok {
		t.Fatalf("catalog missing %v (%v)", org, core)
	}
	return s
}

func TestCatalogSizes(t *testing.T) {
	if n := len(catalog40()); n != 11 {
		t.Fatalf("40nm catalog has %d designs, want 11", n)
	}
	if n := len(Catalog(tech.N20(), ws)); n != 11 {
		t.Fatalf("20nm catalog has %d designs, want 11", n)
	}
	if n := len(TCOCatalog(ws)); n != 7 {
		t.Fatalf("TCO catalog has %d designs, want 7 (Table 5.1)", n)
	}
}

func TestCatalogPanicsOnUnknownNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node accepted")
		}
	}()
	Catalog(tech.N32NOCOut(), ws)
}

// Published die areas and powers (Tables 2.3/3.2) must reproduce from the
// component model within rounding.
func TestPublishedAreasAndPowers(t *testing.T) {
	cases := []struct {
		org         Organization
		core        tech.CoreType
		area, power float64
	}{
		{ConventionalOrg, tech.Conventional, 276, 94},
		{TiledOrg, tech.OoO, 244, 51},
		{ScaleOutOrg, tech.OoO, 262, 62},
		{TiledOrg, tech.InOrder, 249, 67},
		{ScaleOutOrg, tech.InOrder, 269, 91},
	}
	specs := catalog40()
	for _, c := range cases {
		s := find(t, specs, c.org, c.core)
		if math.Abs(s.DieArea()-c.area) > 8 {
			t.Errorf("%s: die %v, thesis %v", s.Name(), s.DieArea(), c.area)
		}
		if math.Abs(s.Power()-c.power) > 6 {
			t.Errorf("%s: power %v, thesis %v", s.Name(), s.Power(), c.power)
		}
	}
}

// The central result (Tables 2.3/3.2): the PD ordering at 40nm.
// Conventional < Tiled < LLC-optimal < (+IR) < Scale-Out < Ideal for both
// core types, and in-order designs above their OoO counterparts.
func TestPDOrdering40nm(t *testing.T) {
	specs := catalog40()
	pd := func(org Organization, core tech.CoreType) float64 {
		return find(t, specs, org, core).PD()
	}
	for _, core := range []tech.CoreType{tech.OoO, tech.InOrder} {
		conv := find(t, specs, ConventionalOrg, tech.Conventional).PD()
		tiled := pd(TiledOrg, core)
		llc := pd(LLCOptimalTiledOrg, core)
		ir := pd(LLCOptimalTiledIROrg, core)
		so := pd(ScaleOutOrg, core)
		ideal := pd(IdealOrg, core)
		if !(conv < tiled && tiled < llc && llc <= ir && ir < so && so < ideal) {
			t.Errorf("%v PD ordering violated: conv %.3f tiled %.3f llc %.3f ir %.3f so %.3f ideal %.3f",
				core, conv, tiled, llc, ir, so, ideal)
		}
	}
	if pd(ScaleOutOrg, tech.InOrder) <= pd(ScaleOutOrg, tech.OoO) {
		t.Error("in-order Scale-Out should beat OoO Scale-Out on PD")
	}
}

// Headline ratios (Section 3.4.5): Scale-Out (OoO) improves PD ~3.5x over
// conventional and ~1.5x over tiled at 40nm; the in-order design ~6x over
// conventional. Scale-Out trails the ideal by under ~15%.
func TestHeadlineRatios(t *testing.T) {
	specs := catalog40()
	conv := find(t, specs, ConventionalOrg, tech.Conventional).PD()
	soO := find(t, specs, ScaleOutOrg, tech.OoO).PD()
	soI := find(t, specs, ScaleOutOrg, tech.InOrder).PD()
	tiledO := find(t, specs, TiledOrg, tech.OoO).PD()
	idealO := find(t, specs, IdealOrg, tech.OoO).PD()

	if r := soO / conv; r < 2.8 || r > 4.5 {
		t.Errorf("Scale-Out(OoO)/conventional PD ratio %v, thesis ~3.5", r)
	}
	if r := soI / conv; r < 4.5 || r > 7.5 {
		t.Errorf("Scale-Out(IO)/conventional PD ratio %v, thesis ~6", r)
	}
	if r := soO / tiledO; r < 1.3 || r > 2.1 {
		t.Errorf("Scale-Out/tiled PD ratio %v, thesis ~1.5", r)
	}
	if gap := 1 - soO/idealO; gap < 0 || gap > 0.15 {
		t.Errorf("Scale-Out behind ideal by %v, thesis ~9%%", gap)
	}
}

// At 20nm, Scale-Out's lead over conventional and tiled must grow
// (Section 3.4.5: the advantage improves under technology scaling).
func TestScalingImprovesLead(t *testing.T) {
	s40, s20 := catalog40(), Catalog(tech.N20(), ws)
	lead := func(specs []Spec) float64 {
		so := find(t, specs, ScaleOutOrg, tech.OoO).PD()
		tiled := find(t, specs, TiledOrg, tech.OoO).PD()
		return so / tiled
	}
	if lead(s20) <= lead(s40) {
		t.Errorf("Scale-Out/tiled lead shrank with scaling: %v -> %v", lead(s40), lead(s20))
	}
}

// Memory channel provisioning: conventional uses one channel per four
// cores; everything else is demand-provisioned and never exceeds six.
func TestChannelProvisioning(t *testing.T) {
	for _, n := range []tech.Node{tech.N40(), tech.N20()} {
		for _, s := range Catalog(n, ws) {
			if s.Org == ConventionalOrg {
				if want := (s.Cores + 3) / 4; s.MemChannels != want {
					t.Errorf("%s at %s: %d channels, want %d", s.Name(), n.Name, s.MemChannels, want)
				}
				continue
			}
			if s.MemChannels < 1 || s.MemChannels > tech.MaxMemoryInterfaces {
				t.Errorf("%s at %s: %d channels", s.Name(), n.Name, s.MemChannels)
			}
		}
	}
}

// The Scale-Out (OoO) 40nm design needs exactly 3 channels and the
// in-order one 6 — the Table 3.2 values the bandwidth model anchors on.
func TestScaleOutChannels(t *testing.T) {
	specs := catalog40()
	if s := find(t, specs, ScaleOutOrg, tech.OoO); s.MemChannels != 3 {
		t.Errorf("Scale-Out (OoO) channels %d, want 3", s.MemChannels)
	}
	if s := find(t, specs, ScaleOutOrg, tech.InOrder); s.MemChannels != 6 {
		t.Errorf("Scale-Out (In-order) channels %d, want 6", s.MemChannels)
	}
}

// Instruction replication must help large-LLC configurations more at
// 20nm (bigger mesh diameter) than at 40nm, and never exceed the ideal.
func TestIRBehaviour(t *testing.T) {
	for _, core := range []tech.CoreType{tech.OoO, tech.InOrder} {
		for _, n := range []tech.Node{tech.N40(), tech.N20()} {
			specs := Catalog(n, ws)
			llc := find(t, specs, LLCOptimalTiledOrg, core).PD()
			ir := find(t, specs, LLCOptimalTiledIROrg, core).PD()
			ideal := find(t, specs, IdealOrg, core).PD()
			if ir < llc {
				t.Errorf("%v at %s: IR made things worse (%v < %v)", core, n.Name, ir, llc)
			}
			if ir >= ideal {
				t.Errorf("%v at %s: IR %v beat the ideal %v", core, n.Name, ir, ideal)
			}
		}
	}
	// The 20nm OoO IR gain exceeds the 40nm gain (thesis: 2% vs 14%).
	gain := func(n tech.Node) float64 {
		specs := Catalog(n, ws)
		return find(t, specs, LLCOptimalTiledIROrg, tech.OoO).PD() /
			find(t, specs, LLCOptimalTiledOrg, tech.OoO).PD()
	}
	if gain(tech.N20()) <= gain(tech.N40()) {
		t.Errorf("IR gain did not grow with scaling: %v -> %v", gain(tech.N40()), gain(tech.N20()))
	}
}

func TestSpecNames(t *testing.T) {
	specs := catalog40()
	s := find(t, specs, TiledOrg, tech.OoO)
	if s.Name() != "Tiled (OoO)" {
		t.Fatalf("name %q", s.Name())
	}
	c := find(t, specs, ConventionalOrg, tech.Conventional)
	if c.Name() != "Conventional" {
		t.Fatalf("name %q", c.Name())
	}
}

func TestFindMissing(t *testing.T) {
	if _, ok := Find(catalog40(), OnePodOrg, tech.OoO); ok {
		t.Fatal("1Pod should only exist in the TCO catalog")
	}
}

func TestTCOCatalogPods(t *testing.T) {
	specs := TCOCatalog(ws)
	onePod := find(t, specs, OnePodOrg, tech.OoO)
	if onePod.Pods != 1 || onePod.Cores != 16 || onePod.LLCMB != 4 {
		t.Fatalf("1Pod (OoO): %+v", onePod)
	}
	// Table 5.1: the 1pod OoO chip is ~158mm2 at ~36W.
	if math.Abs(onePod.DieArea()-158) > 6 || math.Abs(onePod.Power()-36) > 4 {
		t.Errorf("1Pod (OoO): %vmm2 %vW, thesis 158mm2/36W", onePod.DieArea(), onePod.Power())
	}
}

func TestIPCPositiveEverywhere(t *testing.T) {
	for _, s := range append(catalog40(), TCOCatalog(ws)...) {
		if s.IPC() <= 0 || s.PD() <= 0 || s.PerfPerWatt() <= 0 {
			t.Errorf("%s: non-positive metric", s.Name())
		}
		s.Evaluate(nil)
		if s.IPC() != 0 {
			t.Errorf("%s: empty suite should yield zero IPC", s.Name())
		}
	}
}

func TestWorkloadIPCAboveZeroPerWorkload(t *testing.T) {
	for _, s := range catalog40() {
		for _, w := range ws {
			ipc := s.WorkloadIPC(&w)
			if ipc <= 0 {
				t.Errorf("%s on %s: IPC %v", s.Name(), w.Name, ipc)
			}
			if perCore := ipc / float64(s.Cores); perCore >= w.BaseIPC.At(s.Core) {
				t.Errorf("%s on %s: per-core %v exceeds base %v", s.Name(), w.Name, perCore, w.BaseIPC.At(s.Core))
			}
		}
	}
}
