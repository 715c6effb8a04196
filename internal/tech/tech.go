// Package tech models the process-technology and component cost data the
// thesis builds on: per-component area and power at 40nm (Table 2.1), core
// microarchitecture specifications (Table 2.2), the 40nm -> 20nm scaling
// rules (Section 2.4.1), the 32nm NOC-Out evaluation node (Table 4.1), and
// the relaxed 3D budgets (Table 6.1).
//
// All areas are in mm^2, all powers in Watts, all capacities in MB unless
// stated otherwise. Latencies are in core clock cycles at the fixed 2GHz
// operating frequency the thesis assumes for every core type.
package tech

import (
	"fmt"
	"strings"
)

// ClockGHz is the operating frequency assumed for all cores and nodes.
const ClockGHz = 2.0

// CacheLineBytes is the line size used throughout the memory hierarchy.
const CacheLineBytes = 64

// CoreType enumerates the three core microarchitectures of Table 2.2.
type CoreType int

const (
	// Conventional is the aggressive 4-wide server core (Xeon-class):
	// 128-entry ROB, 32-entry LSQ, 64KB L1s.
	Conventional CoreType = iota
	// OoO is the lower-complexity 3-wide out-of-order core
	// (ARM Cortex-A15 class): 60-entry ROB, 16-entry LSQ, 32KB L1s.
	OoO
	// InOrder is the dual-issue in-order core (ARM Cortex-A8 class).
	InOrder
)

// String returns the thesis's name for the core type.
func (c CoreType) String() string {
	switch c {
	case Conventional:
		return "Conventional"
	case OoO:
		return "OoO"
	case InOrder:
		return "In-order"
	default:
		return fmt.Sprintf("CoreType(%d)", int(c))
	}
}

// ParseCoreType resolves a human-typed core type name, in any case:
// the wire token ("conventional", "ooo" or "in-order") or an alias —
// "conv", "out-of-order", "inorder" or "io". The CLIs and the sweep
// API's short form use it; the simulator's wire decoder stays strict.
func ParseCoreType(name string) (CoreType, error) {
	switch strings.ToLower(name) {
	case "conventional", "conv":
		return Conventional, nil
	case "ooo", "out-of-order":
		return OoO, nil
	case "in-order", "inorder", "io":
		return InOrder, nil
	default:
		return 0, fmt.Errorf("unknown core type %q (want conventional, ooo or in-order)", name)
	}
}

// CoreSpec captures the microarchitectural parameters of Table 2.2 along
// with the 40nm area and power figures of Table 2.1.
type CoreSpec struct {
	Type       CoreType
	Width      int     // dispatch/retire width
	ROBEntries int     // reorder buffer (0 for in-order)
	LSQEntries int     // load/store queue (0 for in-order)
	L1IKB      int     // L1 instruction cache capacity (KB)
	L1DKB      int     // L1 data cache capacity (KB)
	L1Ways     int     // L1 associativity (I-cache; D-cache for conventional is 8)
	L1Latency  int     // load-to-use latency (cycles)
	AreaMM2    float64 // die area at 40nm including L1s
	PowerW     float64 // peak power at 40nm
}

// Cores returns the specification for the requested core type (Table 2.1/2.2).
func Cores(t CoreType) CoreSpec {
	switch t {
	case Conventional:
		return CoreSpec{
			Type: Conventional, Width: 4, ROBEntries: 128, LSQEntries: 32,
			L1IKB: 64, L1DKB: 64, L1Ways: 4, L1Latency: 3,
			AreaMM2: 25.0, PowerW: 11.0,
		}
	case OoO:
		return CoreSpec{
			Type: OoO, Width: 3, ROBEntries: 60, LSQEntries: 16,
			L1IKB: 32, L1DKB: 32, L1Ways: 2, L1Latency: 2,
			AreaMM2: 4.5, PowerW: 1.0,
		}
	case InOrder:
		return CoreSpec{
			Type: InOrder, Width: 2, ROBEntries: 0, LSQEntries: 0,
			L1IKB: 32, L1DKB: 32, L1Ways: 2, L1Latency: 2,
			AreaMM2: 1.3, PowerW: 0.48,
		}
	default:
		panic(fmt.Sprintf("tech: unknown core type %d", int(t)))
	}
}

// LLC cost constants at 40nm (Table 2.1): a 16-way set-associative
// last-level cache costs 5mm^2 and 1W per MB.
const (
	LLCAreaPerMB  = 5.0
	LLCPowerPerMB = 1.0
	LLCWays       = 16
)

// Memory interface constants (Table 2.1). A DDR3 interface (PHY +
// controller) occupies 12mm^2 and dissipates 5.7W. A DDR3-1667 channel
// provides 12.8GB/s raw, of which 70% (9GB/s) is usable. DDR4 doubles the
// per-channel bandwidth at the same area and power (Section 2.4.1).
const (
	MemIfaceAreaMM2     = 12.0
	MemIfacePowerW      = 5.7
	DDR3UsableGBs       = 9.0
	DDR4UsableGBs       = 18.0
	MemoryLatencyNanos  = 45.0 // main memory access latency (Table 2.2)
	MaxMemoryInterfaces = 6
)

// SoC miscellaneous components (I/O, glue logic): 42mm^2, 5W (Table 2.1).
const (
	SoCMiscAreaMM2 = 42.0
	SoCMiscPowerW  = 5.0
)

// MemoryLatencyCycles is the main-memory access latency expressed in core
// cycles at the 2GHz clock: 45ns -> 90 cycles.
const MemoryLatencyCycles = int(MemoryLatencyNanos * ClockGHz)

// DDRGen selects the memory interface generation for a node.
type DDRGen int

const (
	// DDR3 is the 40nm-era interface: 9GB/s usable per channel.
	DDR3 DDRGen = iota
	// DDR4 doubles per-channel bandwidth; assumed at 20nm and for 3D.
	DDR4
)

// UsableGBs returns the usable per-channel bandwidth for the generation.
func (g DDRGen) UsableGBs() float64 {
	if g == DDR4 {
		return DDR4UsableGBs
	}
	return DDR3UsableGBs
}

// String names the generation.
func (g DDRGen) String() string {
	if g == DDR4 {
		return "DDR4"
	}
	return "DDR3"
}

// Node describes a process-technology design point with its chip-level
// budgets (Section 2.4.1 and Table 6.1).
type Node struct {
	Name            string
	FeatureNM       int
	SupplyV         float64
	LogicAreaScale  float64 // multiplier on 40nm core/cache area
	LogicPowerScale float64 // multiplier on 40nm core/cache power
	MaxDieAreaMM2   float64 // upper end of the die-area budget
	MinDieAreaMM2   float64 // lower end (designs below this are fine; above Max is not)
	TDPWatts        float64 // chip power budget
	Memory          DDRGen
}

// N40 is the 40nm baseline: 250-280mm^2 dies, 95W TDP, DDR3.
func N40() Node {
	return Node{
		Name: "40nm", FeatureNM: 40, SupplyV: 0.9,
		LogicAreaScale: 1.0, LogicPowerScale: 1.0,
		MaxDieAreaMM2: 280, MinDieAreaMM2: 250, TDPWatts: 95, Memory: DDR3,
	}
}

// N20 is the 20nm projection: logic area scales by 1/4 over two
// generations; logic power by ~0.4 (0.8V supply and capacitance scaling);
// memory interfaces do not scale and move to DDR4. These factors exactly
// reproduce the die areas and powers of Tables 2.4 and 3.2.
func N20() Node {
	return Node{
		Name: "20nm", FeatureNM: 20, SupplyV: 0.8,
		LogicAreaScale: 0.25, LogicPowerScale: 0.4,
		MaxDieAreaMM2: 280, MinDieAreaMM2: 190, TDPWatts: 95, Memory: DDR4,
	}
}

// N40For3D is the 40nm node with the relaxed 3D budgets of Table 6.1:
// 250W (liquid-cooled stack) and DDR4 interfaces, 250-280mm^2 per logic die.
func N40For3D() Node {
	n := N40()
	n.Name = "40nm-3D"
	n.TDPWatts = 250
	n.Memory = DDR4
	return n
}

// N32NOCOut is the 32nm node used for the NOC-Out evaluation (Table 4.1):
// the A15-like core is 2.9mm^2 and LLC costs 3.2mm^2 per MB.
func N32NOCOut() Node {
	return Node{
		Name: "32nm", FeatureNM: 32, SupplyV: 0.9,
		LogicAreaScale: 2.9 / 4.5, LogicPowerScale: 0.8,
		MaxDieAreaMM2: 280, MinDieAreaMM2: 200, TDPWatts: 95, Memory: DDR3,
	}
}

// CoreArea returns the area of one core of type t at this node.
func (n Node) CoreArea(t CoreType) float64 {
	return Cores(t).AreaMM2 * n.LogicAreaScale
}

// CorePower returns the peak power of one core of type t at this node.
func (n Node) CorePower(t CoreType) float64 {
	return Cores(t).PowerW * n.LogicPowerScale
}

// LLCArea returns the area of an LLC of the given capacity at this node.
func (n Node) LLCArea(mb float64) float64 {
	return mb * LLCAreaPerMB * n.LogicAreaScale
}

// LLCPower returns the power of an LLC of the given capacity at this node.
func (n Node) LLCPower(mb float64) float64 {
	return mb * LLCPowerPerMB * n.LogicPowerScale
}

// LLCBankLatency returns the access latency, in cycles, of one bank of a
// last-level cache of total capacity mb megabytes. It is a CACTI-like fit:
// latency grows with the log of capacity, anchored so that a 4MB cache has
// a ~6-cycle bank access and a 48MB conventional LLC ~13 cycles, matching
// the latency window the thesis's configurations imply.
func LLCBankLatency(mb float64) int {
	if mb <= 0 {
		return 1
	}
	lat := 4.0
	for c := 1.0; c < mb; c *= 2 {
		if c >= 4 {
			// Word lines, H-trees, and decoder depth grow superlinearly
			// in large banks: beyond 4MB each doubling costs two cycles,
			// which is what makes very large caches strictly detrimental
			// for scale-out workloads (Figure 2.2).
			lat += 2
			continue
		}
		lat++
	}
	return int(lat)
}

// WireDelayPSPerMM is the repeated semi-global wire delay (Section 4.3.2):
// 125 ps/mm, i.e. a 2GHz cycle covers 4mm of wire.
const WireDelayPSPerMM = 125.0

// WireCyclesForMM returns the number of 2GHz clock cycles needed to
// traverse d millimetres of repeated wire, rounded up, minimum zero.
func WireCyclesForMM(d float64) int {
	if d <= 0 {
		return 0
	}
	ps := d * WireDelayPSPerMM
	cyclePS := 1000.0 / ClockGHz
	c := int(ps / cyclePS)
	if float64(c)*cyclePS < ps {
		c++
	}
	return c
}

// LinkEnergyFJPerBitMM is the link traversal energy on random data
// (Section 4.3.2): 50 fJ/bit/mm.
const LinkEnergyFJPerBitMM = 50.0
