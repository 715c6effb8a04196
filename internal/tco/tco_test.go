package tco

import (
	"math"
	"testing"

	"scaleout/internal/chip"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var ws = workload.Suite()

func spec(t *testing.T, org chip.Organization, core tech.CoreType) chip.Spec {
	t.Helper()
	s, ok := chip.Find(chip.TCOCatalog(ws), org, core)
	if !ok {
		t.Fatalf("missing %v (%v)", org, core)
	}
	return s
}

func compose(t *testing.T, s chip.Spec, memGB int) Datacenter {
	t.Helper()
	dc, err := Compose(NewParams(), s, memGB)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// Table 5.1 price anchors: conventional at its $800 market price; tiled
// and Scale-Out near $370; the small 1pod dies near $320.
func TestPriceAnchors(t *testing.T) {
	if p := ChipPrice(spec(t, chip.ConventionalOrg, tech.Conventional)); p != 800 {
		t.Fatalf("conventional price %v, want market $800", p)
	}
	if p := ChipPrice(spec(t, chip.ScaleOutOrg, tech.OoO)); p < 340 || p > 400 {
		t.Errorf("Scale-Out (OoO) price %v, thesis ~$370", p)
	}
	if p := ChipPrice(spec(t, chip.OnePodOrg, tech.OoO)); p < 290 || p > 350 {
		t.Errorf("1Pod (OoO) price %v, thesis ~$320", p)
	}
}

// Section 5.2.2: doubling die area adds only ~$50 at 200K volume because
// NRE and mask costs dominate.
func TestNREDominates(t *testing.T) {
	small := EstimatePrice(158, DefaultVolume)
	large := EstimatePrice(263, DefaultVolume)
	if d := large - small; d < 30 || d > 80 {
		t.Fatalf("price delta for +105mm2: $%v, thesis ~$50", d)
	}
	// At tiny volumes, NRE swamps everything.
	if EstimatePrice(263, 40000) < 2*large {
		t.Fatal("40K-volume price should far exceed the 200K price")
	}
	if got := PriceVsVolume(263, []int{40000, 200000, 1000000}); !(got[0] > got[1] && got[1] > got[2]) {
		t.Fatalf("price not falling with volume: %v", got)
	}
	if EstimatePrice(100, 0) <= 0 {
		t.Fatal("degenerate volume")
	}
}

// Section 5.3.1: two conventional sockets per 1U server versus five for
// the low-power 1pod design.
func TestSocketCounts(t *testing.T) {
	conv := compose(t, spec(t, chip.ConventionalOrg, tech.Conventional), 64)
	if conv.Server.Sockets != 2 {
		t.Errorf("conventional sockets %d, thesis 2", conv.Server.Sockets)
	}
	onePod := compose(t, spec(t, chip.OnePodOrg, tech.OoO), 64)
	if onePod.Server.Sockets != 5 {
		t.Errorf("1pod sockets %d, thesis 5", onePod.Server.Sockets)
	}
}

// Figure 5.1: datacenter performance gains over the conventional design —
// 1pod ~4.4x; the in-order Scale-Out design the highest.
func TestDatacenterPerformanceShape(t *testing.T) {
	perf := func(org chip.Organization, core tech.CoreType) float64 {
		return compose(t, spec(t, org, core), 64).PerfIPC
	}
	conv := perf(chip.ConventionalOrg, tech.Conventional)
	onePod := perf(chip.OnePodOrg, tech.OoO)
	soO := perf(chip.ScaleOutOrg, tech.OoO)
	soI := perf(chip.ScaleOutOrg, tech.InOrder)
	if r := onePod / conv; r < 3.2 || r > 5.6 {
		t.Errorf("1pod/conventional %v, thesis ~4.4", r)
	}
	if soO <= onePod {
		t.Error("Scale-Out (OoO) should beat 1pod at the datacenter level")
	}
	if soI <= soO {
		t.Error("in-order Scale-Out should deliver the highest throughput")
	}
}

// Figure 5.2: TCO varies far less than performance across designs.
func TestTCOMuted(t *testing.T) {
	var lo, hi float64
	for i, s := range chip.TCOCatalog(ws) {
		tcoM := compose(t, s, 64).MonthlyTCO().Total()
		if i == 0 {
			lo, hi = tcoM, tcoM
			continue
		}
		lo, hi = math.Min(lo, tcoM), math.Max(hi, tcoM)
	}
	if hi/lo > 1.6 {
		t.Fatalf("TCO spread %vx too wide; thesis shows muted differences", hi/lo)
	}
}

// Section 5.3.1's paradox: the 1pod design, despite a cheaper and more
// efficient chip, does not get a commensurately lower TCO because five
// sockets per server raise acquisition costs.
func TestOnePodTCOParadox(t *testing.T) {
	conv := compose(t, spec(t, chip.ConventionalOrg, tech.Conventional), 64)
	onePod := compose(t, spec(t, chip.OnePodOrg, tech.OoO), 64)
	r := onePod.MonthlyTCO().Total() / conv.MonthlyTCO().Total()
	if r < 0.9 || r > 1.25 {
		t.Fatalf("1pod/conventional TCO ratio %v, thesis ~1.02", r)
	}
}

// Figure 5.3: perf/TCO ordering — Scale-Out designs on top; the in-order
// Scale-Out beats the OoO one; everything beats conventional by >3x.
func TestPerfPerTCOOrdering(t *testing.T) {
	ppt := func(org chip.Organization, core tech.CoreType) float64 {
		return compose(t, spec(t, org, core), 64).PerfPerTCO()
	}
	conv := ppt(chip.ConventionalOrg, tech.Conventional)
	tiled := ppt(chip.TiledOrg, tech.OoO)
	onePod := ppt(chip.OnePodOrg, tech.OoO)
	soO := ppt(chip.ScaleOutOrg, tech.OoO)
	soI := ppt(chip.ScaleOutOrg, tech.InOrder)
	if !(conv < tiled && tiled < onePod && onePod < soO && soO < soI) {
		t.Fatalf("perf/TCO ordering violated: conv %.0f tiled %.0f 1pod %.0f soO %.0f soI %.0f",
			conv, tiled, onePod, soO, soI)
	}
	if r := soI / conv; r < 4.5 || r > 9 {
		t.Errorf("in-order Scale-Out vs conventional perf/TCO %vx, thesis ~7.1x", r)
	}
	if r := soO / onePod; r < 1.1 || r > 1.6 {
		t.Errorf("Scale-Out vs 1pod perf/TCO %vx, thesis ~1.29x", r)
	}
}

// More memory per server lowers perf/TCO (cost up, processor power
// budget down) — the Figure 5.3 trend.
func TestMemoryCapacityTrend(t *testing.T) {
	s := spec(t, chip.ScaleOutOrg, tech.OoO)
	prev := math.Inf(1)
	for _, mem := range []int{32, 64, 128} {
		ppt := compose(t, s, mem).PerfPerTCO()
		if ppt >= prev {
			t.Fatalf("perf/TCO rose with memory at %dGB", mem)
		}
		prev = ppt
	}
}

// Figure 5.5: larger chips are less sensitive to unit price than the
// small 1pod die that populates five sockets per server.
func TestPriceSensitivity(t *testing.T) {
	sens := func(s chip.Spec) float64 {
		dc := compose(t, s, 64)
		cheap := dc.WithChipPrice(100).PerfPerTCO()
		dear := dc.WithChipPrice(800).PerfPerTCO()
		return cheap / dear
	}
	if s1, s2 := sens(spec(t, chip.OnePodOrg, tech.OoO)), sens(spec(t, chip.ScaleOutOrg, tech.OoO)); s1 <= s2 {
		t.Fatalf("1pod price sensitivity %v not above Scale-Out's %v", s1, s2)
	}
}

func TestBreakdownComponents(t *testing.T) {
	dc := compose(t, spec(t, chip.ScaleOutOrg, tech.InOrder), 64)
	b := dc.MonthlyTCO()
	for name, v := range map[string]float64{
		"infrastructure": b.Infrastructure, "serverHW": b.ServerHW,
		"networking": b.Networking, "power": b.Power, "maintenance": b.Maintenance,
	} {
		if v <= 0 {
			t.Errorf("%s component non-positive: %v", name, v)
		}
	}
	if math.Abs(b.Total()-(b.Infrastructure+b.ServerHW+b.Networking+b.Power+b.Maintenance)) > 1e-9 {
		t.Fatal("total != sum of components")
	}
	// Server acquisition and power are the two largest TCO components
	// (Hamilton; Section 5.1) — infrastructure should not dominate.
	if b.Infrastructure > b.ServerHW {
		t.Error("infrastructure exceeds server hardware; expected servers to dominate")
	}
}

func TestComposeValidation(t *testing.T) {
	if _, err := Compose(NewParams(), spec(t, chip.TiledOrg, tech.OoO), 0); err == nil {
		t.Fatal("0GB memory accepted")
	}
	// A spec that was never evaluated, or was evaluated on no workloads,
	// has no performance to price.
	raw := chip.Spec{Org: chip.TiledOrg, Node: tech.N40(), Core: tech.OoO, Cores: 20, LLCMB: 20,
		Net: noc.Mesh, MemChannels: 2}
	empty := spec(t, chip.TiledOrg, tech.OoO)
	empty.Evaluate(nil)
	for name, s := range map[string]chip.Spec{"unevaluated": raw, "empty suite": empty} {
		if dc, err := Compose(NewParams(), s, 64); err == nil {
			t.Errorf("%s spec accepted: perf %v", name, dc.PerfIPC)
		}
	}
}

func TestServerPrice(t *testing.T) {
	dc := compose(t, spec(t, chip.ConventionalOrg, tech.Conventional), 64)
	want := 2*800.0 + 330 + 2*180 + 64*25
	if math.Abs(dc.ServerPrice()-want) > 1e-9 {
		t.Fatalf("server price %v, want %v", dc.ServerPrice(), want)
	}
}

func TestFacilityPowerRespected(t *testing.T) {
	p := NewParams()
	for _, s := range chip.TCOCatalog(ws) {
		dc := compose(t, s, 64)
		rackIT := float64(p.ServersPerRack)*dc.Server.BoardPowerW*p.SPUE + p.NetworkGearW
		if it := float64(dc.Racks) * rackIT; it > p.DatacenterPowerW/p.PUE*1.001 {
			t.Errorf("%s: IT power %v exceeds the facility budget", s.Name(), it)
		}
	}
}
