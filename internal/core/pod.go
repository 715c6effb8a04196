// Package core implements the thesis's primary contribution: the
// scale-out design methodology (Chapter 3). It defines the performance
// density metric (throughput per unit area), derives the PD-optimal pod —
// a tightly coupled block of cores, LLC, and interconnect — by sweeping
// the design space with the analytic model, and composes Scale-Out
// Processors by replicating pods up to the chip-level area, power, and
// bandwidth budgets, with no inter-pod connectivity or coherence.
package core

import (
	"fmt"
	"math"

	"scaleout/internal/analytic"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Pod is the Scale-Out Processor building block: a stand-alone server —
// cores tightly coupled to a modestly sized LLC through a low-latency
// interconnect — running its own operating system and software stack.
type Pod struct {
	Core  tech.CoreType
	Cores int
	LLCMB float64
	Net   noc.Kind

	// WireDelta adjusts the pod interconnect's header latency in cycles.
	// 3D-stacked pods use negative values (shorter horizontal wires when
	// a pod folds vertically, Chapter 6); wide fixed-distance pods use
	// small positive values (arbitration across more ports).
	WireDelta float64
}

// String formats the pod as in the thesis's figure labels, e.g. "16c-4MB".
func (p Pod) String() string {
	return fmt.Sprintf("%dc-%gMB", p.Cores, p.LLCMB)
}

// Design returns the analytic-model view of the pod.
func (p Pod) Design() analytic.Design {
	d := analytic.NewDesign(p.Core, p.Cores, p.LLCMB, p.Net)
	d.Net.WireDelta = p.WireDelta
	return d
}

// Area returns the pod's silicon area at the given node: cores plus LLC.
// The thesis's pod areas (92mm^2 for the 16-core/4MB OoO pod, 52mm^2 for
// the 32-core/2MB in-order pod at 40nm) count exactly these components;
// the crossbar's area is negligible at pod scale (Table 2.1 bounds the
// interconnect at 0.2-4.5mm^2).
func (p Pod) Area(n tech.Node) float64 {
	return float64(p.Cores)*n.CoreArea(p.Core) + n.LLCArea(p.LLCMB)
}

// Power returns the pod's peak power at the given node (cores + LLC).
func (p Pod) Power(n tech.Node) float64 {
	return float64(p.Cores)*n.CorePower(p.Core) + n.LLCPower(p.LLCMB)
}

// Perf evaluates the pod on the suite with one analytic evaluation
// (analytic.EvaluateSuite): its suite-mean aggregate IPC and its
// worst-case off-chip demand together. Callers that need both, or the
// pod's PD as well (PDFrom), evaluate once here.
func (p Pod) Perf(ws []workload.Workload) analytic.Perf {
	return analytic.EvaluateSuite(ws, p.Design())
}

// IPC returns the pod's aggregate application IPC averaged over the suite.
func (p Pod) IPC(ws []workload.Workload) float64 { return p.Perf(ws).IPC }

// PD returns the pod's performance density — aggregate IPC per mm^2 —
// the optimization metric of the scale-out design methodology.
func (p Pod) PD(n tech.Node, ws []workload.Workload) float64 { return p.PDFrom(n, p.Perf(ws)) }

// PDFrom is PD from an evaluation of the pod the caller already holds
// (Perf, or analytic.EvaluateSuites over the pods' designs).
func (p Pod) PDFrom(n tech.Node, perf analytic.Perf) float64 { return perf.IPC / p.Area(n) }

// PeakBandwidthGBs returns the pod's worst-case off-chip demand across
// the suite, the figure memory channels are provisioned against.
func (p Pod) PeakBandwidthGBs(ws []workload.Workload) float64 { return p.Perf(ws).PeakGBs }

// SweepPoint is one evaluated pod configuration.
type SweepPoint struct {
	Pod Pod
	PD  float64
	IPC float64
}

// SweepSpace enumerates the design space the thesis explores in Figures
// 3.4-3.6: core counts as powers of two, a set of LLC capacities, and a
// set of interconnects.
type SweepSpace struct {
	Core     tech.CoreType
	MaxCores int
	LLCSizes []float64
	Nets     []noc.Kind
}

// DefaultSweep returns the Chapter-3 design space for a core type:
// 1-256 cores, 1-8MB LLCs, ideal/crossbar/mesh interconnects.
func DefaultSweep(core tech.CoreType) SweepSpace {
	return SweepSpace{
		Core:     core,
		MaxCores: 256,
		LLCSizes: []float64{1, 2, 4, 8},
		Nets:     []noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh},
	}
}

// Sweep evaluates every configuration in the space at the given node.
func Sweep(space SweepSpace, n tech.Node, ws []workload.Workload) []SweepPoint {
	var out []SweepPoint
	for _, net := range space.Nets {
		for _, llc := range space.LLCSizes {
			for c := 1; c <= space.MaxCores; c *= 2 {
				p := Pod{Core: space.Core, Cores: c, LLCMB: llc, Net: net}
				perf := p.Perf(ws)
				out = append(out, SweepPoint{Pod: p, PD: p.PDFrom(n, perf), IPC: perf.IPC})
			}
		}
	}
	return out
}

// Optimal returns the point with the highest performance density.
func Optimal(points []SweepPoint) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, fmt.Errorf("core: empty sweep")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.PD > best.PD {
			best = p
		}
	}
	return best, nil
}

// NearOptimal implements the pod selection rule of Section 3.4.2: among
// realizable configurations (implementable interconnect) with at most
// maxCores cores, pick the highest-PD pod whose PD is within tol of the
// global optimum — trading a flat PD peak for lower design complexity
// (software scalability, coherence, crossbar feasibility).
func NearOptimal(points []SweepPoint, tol float64, maxCores int) (SweepPoint, error) {
	opt, err := Optimal(points)
	if err != nil {
		return SweepPoint{}, err
	}
	best := SweepPoint{PD: -1}
	for _, p := range points {
		if p.Pod.Cores > maxCores {
			continue
		}
		if p.PD >= opt.PD*(1-tol) && p.PD > best.PD {
			best = p
		}
	}
	if best.PD < 0 {
		return SweepPoint{}, fmt.Errorf("core: no configuration within %.0f%% of optimum under %d cores", tol*100, maxCores)
	}
	return best, nil
}

// LimitingFactor records which budget stopped pod replication.
type LimitingFactor string

// The three chip-level constraints of Section 3.2.3.
const (
	AreaLimited      LimitingFactor = "area"
	PowerLimited     LimitingFactor = "power"
	BandwidthLimited LimitingFactor = "bandwidth"
)

// ScaleOutChip is a composed Scale-Out Processor: one or more identical
// pods sharing only memory interfaces and SoC glue — no inter-pod
// coherence or interconnect.
//
// Compose builds it: the chip keeps the pod's evaluation on the suite
// it was composed for, and its IPC, PD, perf/Watt and demand derive
// from that. A ScaleOutChip built any other way reports zero for them.
type ScaleOutChip struct {
	Node        tech.Node
	Pod         Pod
	Pods        int
	MemChannels int
	Limit       LimitingFactor

	podPerf analytic.Perf // Pod.Perf on the suite Compose was given
}

// Cores returns the total core count.
func (c ScaleOutChip) Cores() int { return c.Pods * c.Pod.Cores }

// LLCMB returns the total LLC capacity across pods.
func (c ScaleOutChip) LLCMB() float64 { return float64(c.Pods) * c.Pod.LLCMB }

// DieArea returns the chip area: pods, memory interfaces, and SoC misc.
func (c ScaleOutChip) DieArea() float64 {
	return float64(c.Pods)*c.Pod.Area(c.Node) +
		float64(c.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
}

// Power returns the chip TDP: pods, memory interfaces, and SoC misc.
func (c ScaleOutChip) Power() float64 {
	return float64(c.Pods)*c.Pod.Power(c.Node) +
		float64(c.MemChannels)*tech.MemIfacePowerW + tech.SoCMiscPowerW
}

// IPC returns the chip's aggregate suite-mean IPC. Pods are independent
// servers, so chip performance is exactly pods times pod performance —
// the optimality-preserving scaling at the heart of the methodology.
func (c ScaleOutChip) IPC() float64 { return float64(c.Pods) * c.podPerf.IPC }

// PD returns the chip-level performance density (includes the memory
// interface and SoC overheads that dilute pod-level PD).
func (c ScaleOutChip) PD() float64 { return c.IPC() / c.DieArea() }

// PerfPerWatt returns suite-mean IPC per Watt of chip power.
func (c ScaleOutChip) PerfPerWatt() float64 { return c.IPC() / c.Power() }

// PeakBandwidthGBs returns the chip's worst-case off-chip demand, every
// pod drawing its own: the figure its memory channels are provisioned
// against.
func (c ScaleOutChip) PeakBandwidthGBs() float64 { return float64(c.Pods) * c.podPerf.PeakGBs }

// channelsFor returns the memory channels needed for the given worst-case
// demand at the node's interface generation.
func channelsFor(n tech.Node, demandGBs float64) int {
	ch := int(math.Ceil(demandGBs / n.Memory.UsableGBs()))
	if ch < 1 {
		ch = 1
	}
	return ch
}

// Compose replicates the pod up to the node's area, power, and bandwidth
// budgets (Section 3.2.3) and returns the resulting Scale-Out Processor.
// Memory channels are provisioned for the worst-case workload demand.
// The pod is evaluated on ws once, and the chip keeps that evaluation.
func Compose(n tech.Node, pod Pod, ws []workload.Workload) (ScaleOutChip, error) {
	perf := pod.Perf(ws)
	best := ScaleOutChip{Node: n, Pod: pod, podPerf: perf}
	for pods := 1; ; pods++ {
		ch := channelsFor(n, perf.PeakGBs*float64(pods))
		c := ScaleOutChip{Node: n, Pod: pod, Pods: pods, MemChannels: ch, podPerf: perf}
		switch {
		case ch > tech.MaxMemoryInterfaces:
			best.Limit = BandwidthLimited
		case c.DieArea() > n.MaxDieAreaMM2:
			best.Limit = AreaLimited
		case c.Power() > n.TDPWatts:
			best.Limit = PowerLimited
		default:
			best = c
			continue
		}
		break
	}
	if best.Pods == 0 {
		return best, fmt.Errorf("core: pod %v does not fit the %s budgets at all", pod, n.Name)
	}
	return best, nil
}
