// Package chip provides the catalog of server-processor organizations the
// thesis compares: conventional (dancehall crossbar, aggressive cores,
// large LLC), tiled (mesh, distributed LLC), LLC-optimal tiled, LLC-optimal
// tiled with R-NUCA-style instruction replication, the ideal processor
// (small LLC, fixed 4-cycle interconnect), single-pod chips, and Scale-Out
// Processors. Each organization knows its die area, power, memory channel
// provisioning, aggregate performance, performance density, and
// performance per Watt — the columns of Tables 2.3, 2.4, 3.2, and 5.1.
package chip

import (
	"fmt"
	"math"

	"scaleout/internal/analytic"
	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Organization enumerates the processor families of the comparison.
type Organization int

const (
	// ConventionalOrg is the Xeon-class design: a handful of aggressive
	// cores, 2MB of LLC per core, a crossbar, one channel per 4 cores.
	ConventionalOrg Organization = iota
	// TiledOrg is the Tilera-class mesh of tiles, 1MB LLC per tile (OoO)
	// or the same core:cache area ratio (in-order).
	TiledOrg
	// LLCOptimalTiledOrg shrinks the per-tile LLC to the scale-out
	// sweet spot, maximizing core count.
	LLCOptimalTiledOrg
	// LLCOptimalTiledIROrg adds R-NUCA-style instruction replication.
	LLCOptimalTiledIROrg
	// IdealOrg couples the LLC-optimal configuration to a fixed
	// 4-cycle interconnect — the unrealizable upper bound.
	IdealOrg
	// OnePodOrg is a chip holding a single PD-optimal pod.
	OnePodOrg
	// ScaleOutOrg is the thesis's design: replicated PD-optimal pods.
	ScaleOutOrg
)

// String names the organization as in the thesis tables.
func (o Organization) String() string {
	switch o {
	case ConventionalOrg:
		return "Conventional"
	case TiledOrg:
		return "Tiled"
	case LLCOptimalTiledOrg:
		return "LLC-Optimal Tiled"
	case LLCOptimalTiledIROrg:
		return "LLC-Optimal Tiled with IR"
	case IdealOrg:
		return "Ideal"
	case OnePodOrg:
		return "1Pod"
	case ScaleOutOrg:
		return "Scale-Out"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// Spec is one fully characterized processor design. Evaluate
// characterizes it on a workload suite; until then its IPC, PD and
// perf/Watt are zero.
type Spec struct {
	Org         Organization
	Node        tech.Node
	Core        tech.CoreType
	Cores       int
	LLCMB       float64 // total on-chip LLC capacity
	Pods        int     // 0 for monolithic designs
	Net         noc.Kind
	MemChannels int
	IR          bool // instruction replication enabled

	ipc float64 // suite-mean aggregate IPC, recorded by Evaluate
}

// Name formats the design name as in the tables, e.g. "Tiled (OoO)".
func (s Spec) Name() string {
	if s.Org == ConventionalOrg {
		return "Conventional"
	}
	return fmt.Sprintf("%s (%s)", s.Org, s.Core)
}

// podView returns the per-pod configuration for pod-based designs.
func (s Spec) podView() core.Pod {
	pods := s.Pods
	if pods < 1 {
		pods = 1
	}
	return core.Pod{Core: s.Core, Cores: s.Cores / pods, LLCMB: s.LLCMB / float64(pods), Net: noc.Crossbar}
}

// design returns the analytic-model view of the performance domain: the
// whole chip for monolithic designs, one pod for pod-based designs.
func (s Spec) design() analytic.Design {
	if s.Pods > 0 {
		return s.podView().Design()
	}
	return analytic.NewDesign(s.Core, s.Cores, s.LLCMB, s.Net)
}

// DieArea returns the chip area: logic (cores + LLC) plus memory
// interfaces and SoC components, with logic scaled by the node.
func (s Spec) DieArea() float64 {
	logic := float64(s.Cores)*s.Node.CoreArea(s.Core) + s.Node.LLCArea(s.LLCMB)
	return logic + float64(s.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
}

// Power returns the chip TDP at the node.
func (s Spec) Power() float64 {
	logic := float64(s.Cores)*s.Node.CorePower(s.Core) + s.Node.LLCPower(s.LLCMB)
	return logic + float64(s.MemChannels)*tech.MemIfacePowerW + tech.SoCMiscPowerW
}

// irCapacityPenaltyMB returns the LLC capacity consumed by replicated
// instruction blocks under R-NUCA-style replication: clusters of four
// tiles each hold a copy of the hot half of the instruction footprint
// (Section 2.2.3 — replication pressures small LLC-optimal caches).
func (s Spec) irCapacityPenaltyMB(w *workload.Workload) float64 {
	clusters := s.Cores / 4
	if clusters < 1 {
		clusters = 1
	}
	extraCopies := float64(clusters - 1)
	if extraCopies > 7 {
		extraCopies = 7 // replication is throttled under capacity pressure
	}
	penalty := extraCopies * 0.6 * w.InstrFootprintMB
	if penalty > s.LLCMB*0.6 {
		penalty = s.LLCMB * 0.6
	}
	return penalty
}

// WorkloadIPC returns the chip's aggregate application IPC on workload w.
func (s Spec) WorkloadIPC(w *workload.Workload) float64 {
	ipc, _ := s.evaluate(w, s.design())
	return ipc
}

// evaluate returns the chip's aggregate IPC on workload w and the
// per-domain worst-case off-chip demand, from one analytic evaluation of
// the performance domain d (s.design()).
func (s Spec) evaluate(w *workload.Workload, d analytic.Design) (ipc, demandGBs float64) {
	p := analytic.Evaluate(w, d)
	switch {
	case s.Pods > 0:
		return float64(s.Pods) * p.IPC, p.PeakGBs
	case s.IR:
		return s.irIPC(w, d), p.PeakGBs
	default:
		return p.IPC, p.PeakGBs
	}
}

// irIPC returns the chip's aggregate IPC on workload w with instruction
// replication: I-fetches travel at most one mesh hop (R-NUCA clusters of
// four), while replicas consume LLC capacity, raising the data miss rate.
func (s Spec) irIPC(w *workload.Workload, d analytic.Design) float64 {
	dIR := d
	dIR.LLCMB = s.LLCMB - s.irCapacityPenaltyMB(w)
	accIR := w.AccessBreakdown(s.Core, dIR.LLCMB, s.Cores)
	oneHop := noc.New(noc.Mesh, 4) // one-hop neighborhood
	iLat := float64(tech.LLCBankLatency(dIR.BankMB())) + oneHop.AccessLatency()

	// R-NUCA serves most instruction fetches from a one-hop replica; the
	// remainder (replica misses, cold blocks) still cross the full mesh.
	const replicaHitFrac = 0.85
	llc := dIR.LLCLatency()
	lat := workload.Latencies{
		IFetch: replicaHitFrac*iLat + (1-replicaHitFrac)*llc,
		Data:   llc,
		Mem:    dIR.MemLatency(),
	}
	return float64(s.Cores) / w.CPI(s.Core, accIR, lat, w.MLP.At(s.Core))
}

// IPC returns the suite-mean aggregate IPC that Evaluate recorded: 0
// for a spec never evaluated, or evaluated on an empty suite.
func (s Spec) IPC() float64 { return s.ipc }

// PD returns performance density: suite-mean IPC per mm^2 of die.
func (s Spec) PD() float64 { return s.ipc / s.DieArea() }

// PerfPerWatt returns suite-mean IPC per Watt.
func (s Spec) PerfPerWatt() float64 { return s.ipc / s.Power() }

// Evaluate runs the analytic model on the suite once, each workload's
// IPC and demand from one evaluation, and records the two quantities
// the design is characterized by: its suite-mean aggregate IPC (IPC)
// and its memory channels (MemChannels). Conventional processors
// dedicate one channel per four cores (Section 2.5); all others
// provision for worst-case demand, capped at the package limit of six
// interfaces.
func (s *Spec) Evaluate(ws []workload.Workload) {
	d := s.design()
	var sum, peak float64
	for i := range ws {
		ipc, demand := s.evaluate(&ws[i], d)
		sum += ipc
		if demand > peak {
			peak = demand
		}
	}
	s.ipc = 0
	if len(ws) > 0 {
		s.ipc = sum / float64(len(ws))
	}
	if s.Org == ConventionalOrg {
		s.MemChannels = (s.Cores + 3) / 4
		return
	}
	switch {
	case s.Pods > 0:
		peak *= float64(s.Pods) // every pod draws its own demand
	case s.IR:
		peak *= 1.15 // replication misses add off-chip traffic (Section 2.5.2)
	}
	ch := int(math.Ceil(peak / s.Node.Memory.UsableGBs()))
	if ch < 1 {
		ch = 1
	}
	if ch > tech.MaxMemoryInterfaces {
		ch = tech.MaxMemoryInterfaces
	}
	s.MemChannels = ch
}
