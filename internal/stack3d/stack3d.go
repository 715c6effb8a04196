// Package stack3d extends Scale-Out Processors to 3D logic-on-logic
// integration (Chapter 6): multiple logic dies stacked and connected by
// through-silicon vias whose vertical delay is negligible next to
// horizontal wires. Two strategies compete:
//
//   - Fixed-pod: each pod keeps its core count and LLC capacity but folds
//     vertically across all dies, shrinking its per-die footprint and
//     therefore its horizontal wire delay. One pod per die-equivalent of
//     logic; no software-scalability demands.
//   - Fixed-distance: one pod grows its core count and LLC with the die
//     count while keeping the per-die footprint (and wire delay)
//     constant; the larger shared LLC filters more traffic and uses
//     memory bandwidth more efficiently.
//
// The 3D performance-density metric divides performance by total silicon
// (footprint area times dies), making PD equivalent to the 2D definition
// at one die (Section 6.3).
package stack3d

import (
	"fmt"
	"math"

	"scaleout/internal/analytic"
	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Strategy selects how pods exploit the stacked dies.
type Strategy int

const (
	// FixedPod keeps pod resources constant and shrinks distance.
	FixedPod Strategy = iota
	// FixedDistance grows pod resources at constant distance.
	FixedDistance
)

// String names the strategy as in the thesis.
func (s Strategy) String() string {
	if s == FixedDistance {
		return "Fixed-Distance"
	}
	return "Fixed-Pod"
}

// MaxDies is the deepest stack the thesis considers (thermal limits).
const MaxDies = 4

// wireCyclesForFootprint estimates the horizontal wire component of a
// pod's crossbar latency: the span of a pod of the given per-die
// footprint, at the repeated-wire velocity of 4mm per 2GHz cycle.
func wireCyclesForFootprint(areaMM2 float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	return math.Sqrt(areaMM2) * tech.WireDelayPSPerMM / (1000 / tech.ClockGHz)
}

// PodAt builds the pod a strategy runs at the given die count, including
// its wire-latency adjustment relative to the 2D base pod: fixed-pod
// folding shortens wires; fixed-distance growth widens the crossbar.
func PodAt(base core.Pod, node tech.Node, dies int, s Strategy) core.Pod {
	if dies <= 1 {
		return base
	}
	p := base
	base2D := wireCyclesForFootprint(base.Area(node))
	switch s {
	case FixedPod:
		// The pod folds across the dies: per-die footprint shrinks by
		// the die count, horizontal wires shorten accordingly.
		folded := wireCyclesForFootprint(base.Area(node) / float64(dies))
		p.WireDelta = -(base2D - folded)
	case FixedDistance:
		// Resources scale with dies at constant per-die footprint. The
		// vertical TSVs keep wire distance at the base pod's value, so
		// the grown crossbar must NOT pay the 2D port-scaling penalty —
		// only extra arbitration (~1.5 cycles per port doubling).
		p.Cores = base.Cores * dies
		p.LLCMB = base.LLCMB * float64(dies)
		p.WireDelta = noc.CrossbarLatency(base.Cores) - noc.CrossbarLatency(p.Cores) +
			1.5*math.Log2(float64(dies))
	}
	return p
}

// Chip3D is a composed 3D Scale-Out Processor.
//
// Compose3D builds it: the chip keeps the effective pod's evaluation on
// the suite it was composed for, and its IPC and PD3D derive from that.
// A Chip3D built any other way reports zero for them.
type Chip3D struct {
	Node        tech.Node
	Dies        int
	Strategy    Strategy
	BasePod     core.Pod // the 2D (single-die) pod configuration
	Pod         core.Pod // the effective pod at this die count
	Pods        int
	MemChannels int
	Limit       core.LimitingFactor

	podPerf analytic.Perf // Pod.Perf on the suite Compose3D was given
}

// Cores returns the total core count across pods.
func (c Chip3D) Cores() int { return c.Pods * c.Pod.Cores }

// LLCMB returns the total LLC capacity.
func (c Chip3D) LLCMB() float64 { return float64(c.Pods) * c.Pod.LLCMB }

// LogicArea returns the total pod silicon across all dies.
func (c Chip3D) LogicArea() float64 { return float64(c.Pods) * c.Pod.Area(c.Node) }

// FootprintArea returns the per-die footprint: logic is spread evenly
// across the stack; memory interfaces and SoC glue sit on the base die
// but reserve keep-out area on every die for TSVs and power delivery.
func (c Chip3D) FootprintArea() float64 {
	overhead := float64(c.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
	return c.LogicArea()/float64(c.Dies) + overhead
}

// TotalSilicon returns the stack's silicon: all pod logic plus the
// memory-interface and SoC overhead, which exists once (on the base die).
// It is the denominator of the 3D performance-density metric: PD3D =
// perf / (footprint x dies) with logic spread evenly, which reduces to
// perf / (logic + overhead) and coincides with 2D PD at one die
// (Section 6.3).
func (c Chip3D) TotalSilicon() float64 {
	overhead := float64(c.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
	return c.LogicArea() + overhead
}

// Power returns the stack's TDP.
func (c Chip3D) Power() float64 {
	return float64(c.Pods)*c.Pod.Power(c.Node) +
		float64(c.MemChannels)*tech.MemIfacePowerW + tech.SoCMiscPowerW
}

// IPC returns aggregate suite-mean application IPC.
func (c Chip3D) IPC() float64 { return float64(c.Pods) * c.podPerf.IPC }

// PD3D returns performance per unit of silicon volume: aggregate IPC over
// footprint area times dies. At one die this equals the 2D PD.
func (c Chip3D) PD3D() float64 { return c.IPC() / c.TotalSilicon() }

// Compose3D replicates pods of the chosen strategy across the stack up to
// the per-die area, stack power, and memory bandwidth budgets. The
// effective pod is evaluated on ws once, and the chip keeps that
// evaluation.
func Compose3D(n tech.Node, base core.Pod, dies int, s Strategy, ws []workload.Workload) (Chip3D, error) {
	if dies < 1 || dies > MaxDies {
		return Chip3D{}, fmt.Errorf("stack3d: %d dies (1-%d supported)", dies, MaxDies)
	}
	pod := PodAt(base, n, dies, s)
	perf := pod.Perf(ws)
	best := Chip3D{Node: n, Dies: dies, Strategy: s, BasePod: base, Pod: pod, podPerf: perf}
	// Fixed-distance grows the pod itself; pods still replicate until a
	// budget binds (multi-pod 3D chips).
	for pods := 1; ; pods++ {
		ch := int(math.Ceil(perf.PeakGBs * float64(pods) / n.Memory.UsableGBs()))
		if ch < 1 {
			ch = 1
		}
		c := Chip3D{Node: n, Dies: dies, Strategy: s, BasePod: base, Pod: pod, Pods: pods, MemChannels: ch, podPerf: perf}
		switch {
		case ch > tech.MaxMemoryInterfaces:
			best.Limit = core.BandwidthLimited
		case c.FootprintArea() > n.MaxDieAreaMM2:
			best.Limit = core.AreaLimited
		case c.Power() > n.TDPWatts:
			best.Limit = core.PowerLimited
		default:
			best = c
			continue
		}
		break
	}
	if best.Pods == 0 {
		return best, fmt.Errorf("stack3d: pod %v does not fit the %s budgets at %d dies", base, n.Name, dies)
	}
	return best, nil
}

// StrategyResult pairs a strategy with its composed chip for comparison.
type StrategyResult struct {
	Chip Chip3D
	PD   float64
}

// CompareStrategies composes both strategies at the given die count and
// returns them with the winner first — the Figures 6.5/6.7 comparison.
func CompareStrategies(n tech.Node, base core.Pod, dies int, ws []workload.Workload) ([2]StrategyResult, error) {
	var out [2]StrategyResult
	for i, s := range []Strategy{FixedPod, FixedDistance} {
		c, err := Compose3D(n, base, dies, s, ws)
		if err != nil {
			return out, err
		}
		out[i] = StrategyResult{Chip: c, PD: c.PD3D()}
	}
	if out[1].PD > out[0].PD {
		out[0], out[1] = out[1], out[0]
	}
	return out, nil
}

// Optimal2DPod sweeps the Chapter-6 design space (crossbar pods, 2-32MB
// LLCs, core counts bounded by crossbar realizability at 64) at the 3D
// node and returns the PD-optimal single-die pod — the baseline both
// strategies grow from (Figures 6.4/6.6).
func Optimal2DPod(n tech.Node, coreType tech.CoreType, ws []workload.Workload) (core.Pod, error) {
	best := core.SweepPoint{PD: -1}
	for _, llc := range []float64{2, 4, 8, 16, 32} {
		for c := 2; c <= 64; c *= 2 {
			p := core.Pod{Core: coreType, Cores: c, LLCMB: llc, Net: noc.Crossbar}
			// Chip-level PD: include interface overheads so the optimum
			// reflects whole-chip silicon, as Table 6.2 reports.
			chip, err := Compose3D(n, p, 1, FixedPod, ws)
			if err != nil {
				continue
			}
			pd := chip.PD3D()
			if pd > best.PD {
				best = core.SweepPoint{Pod: p, PD: pd}
			}
		}
	}
	if best.PD < 0 {
		return core.Pod{}, fmt.Errorf("stack3d: empty 2D sweep")
	}
	return best.Pod, nil
}
