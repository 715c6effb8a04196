package tech

import (
	"math"
	"testing"
)

func TestCoreSpecs(t *testing.T) {
	conv := Cores(Conventional)
	if conv.Width != 4 || conv.ROBEntries != 128 || conv.AreaMM2 != 25 || conv.PowerW != 11 {
		t.Fatalf("conventional spec: %+v", conv)
	}
	ooo := Cores(OoO)
	if ooo.Width != 3 || ooo.ROBEntries != 60 || ooo.AreaMM2 != 4.5 || ooo.PowerW != 1 {
		t.Fatalf("OoO spec: %+v", ooo)
	}
	io := Cores(InOrder)
	if io.Width != 2 || io.ROBEntries != 0 || io.AreaMM2 != 1.3 || io.PowerW != 0.48 {
		t.Fatalf("in-order spec: %+v", io)
	}
}

func TestCoreTypeString(t *testing.T) {
	if Conventional.String() != "Conventional" || OoO.String() != "OoO" || InOrder.String() != "In-order" {
		t.Fatal("core type names")
	}
	if CoreType(9).String() == "" {
		t.Fatal("unknown core type unnamed")
	}
}

// ParseCoreType takes each wire token and alias in any case; anything
// else is an error.
func TestParseCoreType(t *testing.T) {
	for name, want := range map[string]CoreType{
		"conventional": Conventional, "Conv": Conventional,
		"ooo": OoO, "OoO": OoO, "out-of-order": OoO,
		"in-order": InOrder, "InOrder": InOrder, "io": InOrder,
	} {
		if got, err := ParseCoreType(name); err != nil || got != want {
			t.Errorf("ParseCoreType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "riscy", "in order"} {
		if _, err := ParseCoreType(name); err == nil {
			t.Errorf("ParseCoreType(%q) accepted", name)
		}
	}
}

func TestCoresPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown core type accepted")
		}
	}()
	Cores(CoreType(42))
}

// The thesis's published die areas are exact sums of the Table 2.1
// component areas; verify the signature configurations.
func TestThesisAreaArithmetic40nm(t *testing.T) {
	n := N40()
	// Scale-Out (OoO): 2 pods x (16 cores + 4MB) + 3 MCs + SoC = 262mm2.
	pod := 16*n.CoreArea(OoO) + n.LLCArea(4)
	if math.Abs(pod-92) > 1e-9 {
		t.Fatalf("OoO pod area %v, want 92 (thesis Section 3.4.2)", pod)
	}
	chip := 2*pod + 3*MemIfaceAreaMM2 + SoCMiscAreaMM2
	if math.Abs(chip-262) > 1e-9 {
		t.Fatalf("Scale-Out (OoO) die %v, want 262", chip)
	}
	// In-order pod: 32 cores + 2MB = 51.6mm2 (thesis: 52).
	podI := 32*n.CoreArea(InOrder) + n.LLCArea(2)
	if math.Abs(podI-51.6) > 1e-9 {
		t.Fatalf("in-order pod area %v, want 51.6", podI)
	}
	// Conventional: 6 cores + 12MB + 2 MCs + SoC = 276mm2.
	conv := 6*n.CoreArea(Conventional) + n.LLCArea(12) + 2*MemIfaceAreaMM2 + SoCMiscAreaMM2
	if math.Abs(conv-276) > 1e-9 {
		t.Fatalf("conventional die %v, want 276", conv)
	}
}

// At 20nm logic area quarters, logic power scales by 0.4, and memory
// interfaces stay fixed — the factors that reproduce Table 2.4 exactly.
func TestThesisScaling20nm(t *testing.T) {
	n := N20()
	// Tiled (OoO) at 20nm: 80 cores + 80MB + 2 MCs + SoC = 256mm2, 80W.
	area := 80*n.CoreArea(OoO) + n.LLCArea(80) + 2*MemIfaceAreaMM2 + SoCMiscAreaMM2
	if math.Abs(area-256) > 1e-9 {
		t.Fatalf("tiled 20nm die %v, want 256", area)
	}
	power := 80*n.CorePower(OoO) + n.LLCPower(80) + 2*MemIfacePowerW + SoCMiscPowerW
	if math.Abs(power-80.4) > 0.01 {
		t.Fatalf("tiled 20nm power %v, want 80.4", power)
	}
}

func TestLLCBankLatencyMonotonic(t *testing.T) {
	prev := 0
	for _, mb := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64} {
		lat := LLCBankLatency(mb)
		if lat < prev {
			t.Fatalf("bank latency not monotonic at %vMB: %d < %d", mb, lat, prev)
		}
		prev = lat
	}
	if LLCBankLatency(0) != 1 {
		t.Fatal("zero-capacity latency")
	}
	if LLCBankLatency(1) != 4 {
		t.Fatalf("1MB bank latency %d, want 4", LLCBankLatency(1))
	}
}

func TestMemoryLatencyCycles(t *testing.T) {
	if MemoryLatencyCycles != 90 {
		t.Fatalf("45ns at 2GHz = %d cycles, want 90", MemoryLatencyCycles)
	}
}

func TestDDRGen(t *testing.T) {
	if DDR3.UsableGBs() != 9 || DDR4.UsableGBs() != 18 {
		t.Fatal("channel bandwidths")
	}
	if DDR3.String() != "DDR3" || DDR4.String() != "DDR4" {
		t.Fatal("DDR names")
	}
}

func TestNodes(t *testing.T) {
	if n := N40(); n.Memory != DDR3 || n.TDPWatts != 95 || n.LogicAreaScale != 1 {
		t.Fatalf("N40: %+v", n)
	}
	if n := N20(); n.Memory != DDR4 || n.LogicAreaScale != 0.25 || n.LogicPowerScale != 0.4 {
		t.Fatalf("N20: %+v", n)
	}
	if n := N40For3D(); n.TDPWatts != 250 || n.Memory != DDR4 {
		t.Fatalf("N40For3D: %+v", n)
	}
	if n := N32NOCOut(); math.Abs(n.CoreArea(OoO)-2.9) > 1e-9 {
		t.Fatalf("32nm A15 core area %v, want 2.9 (Table 4.1)", n.CoreArea(OoO))
	}
}

func TestWireCycles(t *testing.T) {
	// 125ps/mm at 2GHz: a 4mm wire fits in one 500ps cycle.
	if c := WireCyclesForMM(4); c != 1 {
		t.Fatalf("4mm = %d cycles, want 1", c)
	}
	if c := WireCyclesForMM(4.1); c != 2 {
		t.Fatalf("4.1mm = %d cycles, want 2", c)
	}
	if WireCyclesForMM(0) != 0 || WireCyclesForMM(-1) != 0 {
		t.Fatal("non-positive distance")
	}
}
