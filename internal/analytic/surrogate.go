package analytic

import (
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// This file extends the first-order model into the surrogate tier
// (internal/tier): the same CPI-stack arithmetic, generalized to cover
// the simulators' configuration space — an arbitrary pre-built
// interconnect (not just the defaults NewDesign sizes), a bounded MSHR
// file, and software-scalability derating — and packaged as a predicted
// Result-shaped Estimate. The surrogate is *not* the simulator: its
// predictions carry per-region error measured by cmd/calibrate, and the
// tiered evaluator only trusts it as far as that calibration certifies.

// DesignFor builds a design around an existing interconnect
// configuration, where NewDesign would size a fresh one for the core
// count. This is how the surrogate tier maps a simulator configuration
// — whose Net may carry overrides (link width, LLC tiles) — onto the
// analytic model without losing those fields.
func DesignFor(core tech.CoreType, cores int, llcMB float64, net noc.Config) Design {
	if net.Kind == 0 && net.Cores == 0 {
		// Mirror the simulators' default: a zero Config means crossbar.
		net = noc.New(noc.Crossbar, cores)
	}
	return Design{Core: core, Cores: cores, LLCMB: llcMB, Net: net}
}

// Estimate is the surrogate tier's prediction for one simulator
// configuration: the analytic model's view of the quantities the
// simulators measure. Fields the first-order model cannot see (cycle
// counts, queueing latencies) are absent — the tiered evaluator fills a
// surrogate-served result only with these predicted fields.
type Estimate struct {
	AppIPC     float64 // aggregate application IPC (the calibrated score)
	PerCoreIPC float64
	OffChipGBs float64
	L1IMPKI    float64 // predicted L1-I misses/kilo-instruction (structural view)
	L1DMPKI    float64
	LLCMissPct float64 // predicted LLC miss ratio, percent
}

// SurrogateSpec is the surrogate's input: the slice of a simulator
// configuration the first-order model can act on.
type SurrogateSpec struct {
	Workload workload.Workload
	Design   Design

	// MSHRs bounds the memory-level parallelism an out-of-order core can
	// express (the structural simulator's L1 MSHR file); <= 0 leaves the
	// workload's calibrated MLP unbounded, matching the statistical
	// simulator.
	MSHRs int

	// SWScaling applies the workload's software-scalability derating,
	// matching sim.Config with DisableSWScaling unset.
	SWScaling bool

	// MemChannels caps predicted throughput at the chip's provisioned
	// off-chip bandwidth (channels x usable DDR3 GB/s), the saturation
	// both simulators model; <= 0 leaves bandwidth unbounded, matching
	// the first-order model's latency-only view.
	MemChannels int
}

// Surrogate predicts the simulators' headline metrics for one
// configuration in microseconds instead of milliseconds. It is the
// fast tier's answer (internal/tier): a point in a region the
// calibration certifies is served from here, and every other point
// pays for the simulator.
func Surrogate(spec SurrogateSpec) Estimate {
	w, d := &spec.Workload, spec.Design
	acc := w.AccessBreakdown(d.Core, d.LLCMB, d.Cores)

	mlp := w.MLP.At(d.Core)
	if spec.MSHRs > 0 && float64(spec.MSHRs) < mlp {
		// A miss cannot overlap without an MSHR entry to live in: the
		// effective window is the smaller of the calibrated MLP and the
		// MSHR file. This is the knee the MSHR ablation sweeps.
		mlp = float64(spec.MSHRs)
	}

	ipc := 1 / w.CPI(d.Core, acc, d.latencies(), mlp)
	if spec.SWScaling {
		ipc *= w.SWEfficiency(d.Cores)
	}

	// Off-chip saturation: a chip cannot retire instructions faster than
	// its memory channels feed it lines. When latency-only IPC demands
	// more bandwidth than the channels supply, throughput degrades to
	// the bandwidth-limited rate.
	demand := w.OffChipGBs(acc, d.Cores, ipc)
	if spec.MemChannels > 0 {
		supply := float64(spec.MemChannels) * tech.DDR3UsableGBs
		if demand > supply {
			ipc *= supply / demand
			demand = supply
		}
	}

	est := Estimate{
		PerCoreIPC: ipc,
		AppIPC:     float64(d.Cores) * ipc,
		OffChipGBs: demand,
		L1IMPKI:    acc.IHitAPKI + acc.IMissMPKI,
		L1DMPKI:    acc.DHitAPKI + acc.DMissMPKI,
	}
	if total := acc.Total(); total > 0 {
		est.LLCMissPct = 100 * acc.MemMPKITotal() / total
	}
	return est
}
