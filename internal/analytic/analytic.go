// Package analytic implements the first-order chip performance model the
// thesis uses for its design-space exploration (Sections 2.4.3 and 3.3).
// The model extends classical average-memory-access-time analysis: given
// a core microarchitecture, an LLC capacity, a sharing degree, and an
// interconnect, it predicts the aggregate number of application
// instructions committed per cycle. It is parametrized by the same
// quantities the thesis extracts from simulation — base core performance,
// cache miss rates, and interconnect delay — which is why Chapter 3 can
// validate it against cycle-accurate simulation (Figure 3.3); our
// reproduction of that validation lives in internal/figures.
package analytic

import (
	"fmt"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Design identifies one point in the processor design space: a core
// type, a number of cores sharing one LLC, the LLC capacity, and the
// interconnect between them.
type Design struct {
	Core  tech.CoreType
	Cores int
	LLCMB float64
	Net   noc.Config
}

// NewDesign builds a design with the interconnect sized for the core count.
func NewDesign(core tech.CoreType, cores int, llcMB float64, kind noc.Kind) Design {
	return Design{Core: core, Cores: cores, LLCMB: llcMB, Net: noc.New(kind, cores)}
}

// Validate reports an error for out-of-range configurations.
func (d Design) Validate() error {
	if d.Cores < 1 {
		return fmt.Errorf("analytic: design with %d cores", d.Cores)
	}
	if d.LLCMB <= 0 {
		return fmt.Errorf("analytic: design with %vMB LLC", d.LLCMB)
	}
	return nil
}

// MemQueueNanos is the average queueing, controller, and row-buffer
// conflict overhead added to the raw 45ns DRAM access latency under
// load (loaded latency ~70-80ns, typical for saturated channels). It is
// wall-clock time, so a model that rescales the clock (internal/dvfs)
// rescales it with the DRAM access.
const MemQueueNanos = 25.0

// memQueueMargin is MemQueueNanos in cycles at the nominal clock.
const memQueueMargin = MemQueueNanos * tech.ClockGHz

// BankMB returns the capacity of one LLC bank. Following Table 3.1, UCA
// designs (crossbar, ideal) use one bank per four cores while NUCA
// designs (mesh and the other packet fabrics) slice the LLC per tile.
func (d Design) BankMB() float64 {
	banks := d.Cores
	if d.Net.Kind == noc.Crossbar || d.Net.Kind == noc.Ideal {
		banks = (d.Cores + 3) / 4
	}
	// A shared cache is always built from at least four banks; fewer
	// cores do not merge the array into one monolithic structure.
	if banks < 4 {
		banks = 4
	}
	return d.LLCMB / float64(banks)
}

// LLCLatency returns the load-to-use LLC hit latency in cycles: bank
// access plus the network contribution (header latency and data reply
// serialization).
func (d Design) LLCLatency() float64 {
	return float64(tech.LLCBankLatency(d.BankMB())) + d.Net.AccessLatency()
}

// OnChipMissLatency returns the on-chip part of an off-chip miss in
// cycles: the LLC bank lookup that detects the miss and the one-way
// network latency.
func (d Design) OnChipMissLatency() float64 {
	return float64(tech.LLCBankLatency(d.BankMB())) + d.Net.OneWayLatency()
}

// MemLatency returns the effective off-chip miss latency in cycles: the
// on-chip lookup that detects the miss, the DRAM access, and queueing
// margin.
func (d Design) MemLatency() float64 {
	return d.OnChipMissLatency() + float64(tech.MemoryLatencyCycles) + memQueueMargin
}

// Perf is what the analytic model predicts for a design: on one
// workload (Evaluate), or over a suite (EvaluateSuite).
type Perf struct {
	// IPC is the aggregate application IPC, cores times per-core IPC —
	// the thesis's "performance" metric (Section 2.4.3). Over a suite it
	// is the arithmetic mean across workloads (the thesis's "averaged
	// across all workloads").
	IPC float64
	// PerCoreIPC is the IPC of one core; over a suite, the mean across
	// workloads.
	PerCoreIPC float64
	// PeakGBs is the worst-case off-chip demand at that IPC; over a
	// suite, the peak across workloads, which memory channels are
	// provisioned against (Section 2.1.6: "the number of memory
	// interfaces must be chosen based on the worst-case off-chip traffic
	// of the workloads").
	PeakGBs float64
}

// latencies are the design-wide terms of the CPI stack, the same for
// every workload: an LLC hit, instruction or data, and an off-chip miss.
func (d Design) latencies() workload.Latencies {
	llc := d.LLCLatency()
	return workload.Latencies{IFetch: llc, Data: llc, Mem: d.MemLatency()}
}

// sharesBreakdown reports whether every workload has the same access
// breakdown on d and o: the breakdown depends on the core type, core
// count and LLC capacity, never on the interconnect.
func (d Design) sharesBreakdown(o Design) bool {
	return d.Core == o.Core && d.Cores == o.Cores && d.LLCMB == o.LLCMB
}

// evaluate predicts w on d from its access breakdown there: the CPI
// stack (workload.CPI) at the workload's calibrated MLP, and the same
// breakdown's off-chip misses give the demand.
func evaluate(w *workload.Workload, d Design, acc workload.Accesses, lat workload.Latencies) Perf {
	ipc := 1 / w.CPI(d.Core, acc, lat, w.MLP.At(d.Core))
	return Perf{IPC: float64(d.Cores) * ipc, PerCoreIPC: ipc, PeakGBs: w.PeakOffChipGBs(acc, d.Cores, ipc)}
}

// Evaluate predicts workload w on design d from one access breakdown:
// aggregate and per-core IPC, and the worst-case off-chip demand.
func Evaluate(w *workload.Workload, d Design) Perf {
	return evaluate(w, d, w.AccessBreakdown(d.Core, d.LLCMB, d.Cores), d.latencies())
}

// suiteSize bounds the suites whose access breakdowns are held on the
// stack; larger suites spill to the heap.
const suiteSize = 8

// EvaluateSuite evaluates d on every workload of ws once, with one
// access breakdown per workload and the design's latencies computed
// once for the suite: the mean aggregate and per-core IPC, and the peak
// demand. An empty suite yields the zero Perf.
func EvaluateSuite(ws []workload.Workload, d Design) Perf {
	var buf [suiteSize]workload.Accesses
	return evaluateSuite(ws, d, breakdowns(buf[:0], ws, d))
}

// EvaluateSuites returns EvaluateSuite(ws, d) for each design of ds.
// Consecutive designs that differ only in their interconnect share each
// workload's access breakdown instead of recomputing it.
func EvaluateSuites(ws []workload.Workload, ds ...Design) []Perf {
	out := make([]Perf, len(ds))
	var buf [suiteSize]workload.Accesses
	var accs []workload.Accesses
	for i, d := range ds {
		if i == 0 || !d.sharesBreakdown(ds[i-1]) {
			accs = breakdowns(buf[:0], ws, d)
		}
		out[i] = evaluateSuite(ws, d, accs)
	}
	return out
}

// breakdowns appends each workload's access breakdown on d to buf.
func breakdowns(buf []workload.Accesses, ws []workload.Workload, d Design) []workload.Accesses {
	for i := range ws {
		buf = append(buf, ws[i].AccessBreakdown(d.Core, d.LLCMB, d.Cores))
	}
	return buf
}

// evaluateSuite averages the workloads' predictions on d (aggregate and
// per-core IPC) and takes the peak of their demands, given each
// workload's access breakdown.
func evaluateSuite(ws []workload.Workload, d Design, accs []workload.Accesses) Perf {
	if len(ws) == 0 {
		return Perf{}
	}
	lat := d.latencies()
	var sum Perf
	for i := range ws {
		p := evaluate(&ws[i], d, accs[i], lat)
		sum.IPC += p.IPC
		sum.PerCoreIPC += p.PerCoreIPC
		if p.PeakGBs > sum.PeakGBs {
			sum.PeakGBs = p.PeakGBs
		}
	}
	n := float64(len(ws))
	return Perf{IPC: sum.IPC / n, PerCoreIPC: sum.PerCoreIPC / n, PeakGBs: sum.PeakGBs}
}
