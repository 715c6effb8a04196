// Package workload models the seven CloudSuite scale-out workloads the
// thesis evaluates: Data Serving, MapReduce-C (text classification),
// MapReduce-W (word count), Media Streaming, SAT Solver, Web Frontend
// (SPECweb2009 banking), and Web Search.
//
// The thesis drives both its analytic model and its Flexus simulations
// with these applications. We cannot run CloudSuite itself, so each
// workload is represented by the statistical quantities the thesis's
// models actually consume: base (memory-system-free) IPC per core type,
// L1-miss rates into the LLC, the LLC miss-rate curve as a function of
// capacity and sharing degree, memory-level parallelism, and the coherence
// snoop fraction. Every constant is calibrated against a number the thesis
// reports (see DESIGN.md "Key calibration constants").
package workload

import (
	"fmt"
	"math"

	"scaleout/internal/tech"
)

// Workload is a calibrated statistical model of one scale-out application.
type Workload struct {
	// Name is the CloudSuite name as used in the thesis figures.
	Name string

	// BaseIPC is the IPC each core type sustains when every memory
	// reference hits in the L1s — the "application instructions per
	// cycle" ceiling set by issue width, branches, and dependencies.
	BaseIPC map[tech.CoreType]float64

	// APKI is the number of LLC accesses (L1 misses, instruction plus
	// data) per kilo-instruction for the 32KB-L1 cores. Conventional
	// cores with 64KB L1s see APKI * ConvAPKIFactor.
	APKI float64

	// ConvAPKIFactor scales APKI for the conventional core's larger L1s.
	ConvAPKIFactor float64

	// IFetchFrac is the fraction of LLC accesses that are instruction
	// fetches. Scale-out workloads have multi-megabyte instruction
	// footprints, so this fraction is large and the fetches nearly
	// always hit in the LLC.
	IFetchFrac float64

	// InstrFootprintMB is the dynamic instruction footprint resident in
	// the LLC (hundreds of KB to MB, Section 1).
	InstrFootprintMB float64

	// Miss-rate curve for data: misses per kilo-instruction to memory
	// given an effective per-workload data capacity of c MB follows
	//   m(c) = MPKIFloor + (MPKI1 - MPKIFloor) * c^(-Alpha)
	// MPKI1 is the data MPKI with 1MB of effective data capacity;
	// MPKIFloor is the compulsory/streaming floor that no cache captures.
	MPKI1     float64
	MPKIFloor float64
	Alpha     float64

	// ShareExp models the mild capacity pressure of sharing one LLC
	// among n cores: effective data capacity = dataMB * (1/n)^ShareExp
	// relative to the 1-core point. The thesis shows this effect is
	// small (Section 2.1.4: ~16% per-core loss from 2 to 256 cores with
	// an ideal interconnect).
	ShareExp float64

	// MLP is the average number of outstanding off-chip misses an
	// out-of-order core overlaps; conventional cores overlap a bit more
	// (deeper ROB/LSQ), in-order cores essentially block (MLP ~1).
	MLP map[tech.CoreType]float64

	// LLCOverlap is the fraction of each LLC *data* hit latency that the
	// core cannot hide (1 = fully exposed, as for in-order cores).
	// Instruction fetch latency is always fully exposed: L1-I misses
	// stall the front end (Section 2.2.3).
	LLCOverlap map[tech.CoreType]float64

	// SnoopPct is the percentage of LLC accesses that trigger a snoop
	// message to a core (Figure 4.3).
	SnoopPct float64

	// WritebackFrac is the fraction of off-chip misses that also cause a
	// dirty writeback, adding to off-chip traffic.
	WritebackFrac float64

	// ScaleLimit is the largest core count at which the software stack
	// scales in full-system simulation (Table 3.1): 64 for Data Serving,
	// MapReduce and SAT Solver; 32 for Web Frontend and Web Search; 16
	// for Media Streaming. The analytic model ignores it (it models
	// hardware potential); simulations respect it.
	ScaleLimit int

	// BWBurstFactor is the ratio of worst-case to average off-chip
	// bandwidth demand, used when provisioning memory channels for the
	// worst case (Section 2.1.6).
	BWBurstFactor float64

	// SWScaleCores and SWScaleExp model software scalability in
	// full-system simulation: beyond SWScaleCores cores, aggregate
	// application throughput is derated by (SWScaleCores/n)^SWScaleExp
	// — the effect Figure 3.3 shows at 32-64 cores on Data Serving,
	// Web Search, and SAT Solver, which the analytic model deliberately
	// does not capture.
	SWScaleCores int
	SWScaleExp   float64

	// SharedFrac is the fraction of data accesses that touch the small
	// read-write shared working set (locks, allocator metadata, shared
	// session state). Only these accesses can generate coherence snoops;
	// the independent-request datasets never do. SharedWriteFrac is the
	// write ratio within those accesses. Together they are calibrated so
	// the simulated directory reproduces the Figure 4.3 snoop rates.
	SharedFrac      float64
	SharedWriteFrac float64
}

// Validate reports an error if any parameter is outside its sane range.
func (w *Workload) Validate() error {
	switch {
	case w.Name == "":
		return fmt.Errorf("workload: empty name")
	case w.APKI <= 0 || w.APKI > 200:
		return fmt.Errorf("workload %s: APKI %v out of range", w.Name, w.APKI)
	case w.IFetchFrac < 0 || w.IFetchFrac > 1:
		return fmt.Errorf("workload %s: IFetchFrac %v out of range", w.Name, w.IFetchFrac)
	case w.MPKI1 < w.MPKIFloor:
		return fmt.Errorf("workload %s: MPKI1 %v below floor %v", w.Name, w.MPKI1, w.MPKIFloor)
	case w.Alpha <= 0 || w.Alpha > 2:
		return fmt.Errorf("workload %s: Alpha %v out of range", w.Name, w.Alpha)
	case w.InstrFootprintMB <= 0:
		return fmt.Errorf("workload %s: non-positive instruction footprint", w.Name)
	case w.ScaleLimit < 1:
		return fmt.Errorf("workload %s: scale limit %d", w.Name, w.ScaleLimit)
	}
	for _, t := range []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder} {
		if w.BaseIPC[t] <= 0 || w.BaseIPC[t] > float64(tech.Cores(t).Width) {
			return fmt.Errorf("workload %s: BaseIPC[%v]=%v exceeds width", w.Name, t, w.BaseIPC[t])
		}
		if w.MLP[t] < 1 {
			return fmt.Errorf("workload %s: MLP[%v]=%v below 1", w.Name, t, w.MLP[t])
		}
		if w.LLCOverlap[t] <= 0 || w.LLCOverlap[t] > 1 {
			return fmt.Errorf("workload %s: LLCOverlap[%v]=%v out of (0,1]", w.Name, t, w.LLCOverlap[t])
		}
	}
	return nil
}

// SWEfficiency returns the software-scalability derating at n cores:
// 1 at or below SWScaleCores, then (SWScaleCores/n)^SWScaleExp.
func (w *Workload) SWEfficiency(n int) float64 {
	if w.SWScaleCores <= 0 || n <= w.SWScaleCores {
		return 1
	}
	return math.Pow(float64(w.SWScaleCores)/float64(n), w.SWScaleExp)
}

// EffectiveAPKI returns LLC accesses per kilo-instruction for a core type.
func (w *Workload) EffectiveAPKI(t tech.CoreType) float64 {
	if t == tech.Conventional {
		return w.APKI * w.ConvAPKIFactor
	}
	return w.APKI
}

// DataCapacityMB returns the LLC capacity left for data once the hot
// half of the shared instruction footprint is resident (instructions and
// data contend for the same ways; only the hot fraction is pinned),
// adjusted for sharing pressure among n cores. The footprint is counted
// once — it is shared by all cores executing the same binary (4.5.1).
func (w *Workload) DataCapacityMB(llcMB float64, cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	data := llcMB - 0.5*w.InstrFootprintMB
	if data < 0.125 {
		data = 0.125 // at least two 64KB-equivalent slivers remain for data
	}
	return data * math.Pow(1/float64(cores), w.ShareExp)
}

// MemMPKI returns off-chip misses per kilo-instruction for a core of type
// t given the shared LLC capacity and sharing degree.
func (w *Workload) MemMPKI(t tech.CoreType, llcMB float64, cores int) float64 {
	return w.AccessBreakdown(t, llcMB, cores).MemMPKITotal()
}

// Accesses decomposes the LLC traffic of a core of type t into hit and
// miss components per kilo-instruction. Instruction fetches and data
// references are kept separate because instruction fetch latency is fully
// exposed (front-end stalls) while data latency is partially overlapped.
type Accesses struct {
	IHitAPKI  float64 // instruction fetches served by the LLC
	DHitAPKI  float64 // data references served by the LLC
	IMissMPKI float64 // instruction fetches going off-chip
	DMissMPKI float64 // data references going off-chip
}

// Total returns the total LLC accesses per kilo-instruction.
func (a Accesses) Total() float64 {
	return a.IHitAPKI + a.DHitAPKI + a.IMissMPKI + a.DMissMPKI
}

// MemMPKITotal returns the off-chip misses per kilo-instruction.
func (a Accesses) MemMPKITotal() float64 { return a.IMissMPKI + a.DMissMPKI }

// AccessBreakdown computes the hit/miss decomposition for a core of type
// t sharing an LLC of llcMB megabytes with cores peers.
func (w *Workload) AccessBreakdown(t tech.CoreType, llcMB float64, cores int) Accesses {
	apki := w.EffectiveAPKI(t)
	iAPKI := apki * w.IFetchFrac
	dAPKI := apki - iAPKI

	iMiss := iAPKI * math.Exp(-3*llcMB/w.InstrFootprintMB)
	c := w.DataCapacityMB(llcMB, cores)
	dMiss := w.MPKIFloor + (w.MPKI1-w.MPKIFloor)*math.Pow(c, -w.Alpha)
	if dMiss > dAPKI {
		dMiss = dAPKI
	}
	return Accesses{
		IHitAPKI:  iAPKI - iMiss,
		DHitAPKI:  dAPKI - dMiss,
		IMissMPKI: iMiss,
		DMissMPKI: dMiss,
	}
}

// LLCHitAPKI returns the LLC accesses per kilo-instruction that hit
// on-chip for a core of type t.
func (w *Workload) LLCHitAPKI(t tech.CoreType, llcMB float64, cores int) float64 {
	h := w.EffectiveAPKI(t) - w.MemMPKI(t, llcMB, cores)
	if h < 0 {
		h = 0
	}
	return h
}

// OffChipGBs returns the average off-chip traffic in GB/s generated by n
// cores of type t each committing ipc application instructions per cycle.
func (w *Workload) OffChipGBs(t tech.CoreType, llcMB float64, cores int, ipc float64) float64 {
	return w.trafficGBs(w.MemMPKI(t, llcMB, cores), cores, ipc)
}

// PeakOffChipGBs is OffChipGBs scaled by the worst-case burst factor used
// for channel provisioning.
func (w *Workload) PeakOffChipGBs(t tech.CoreType, llcMB float64, cores int, ipc float64) float64 {
	return w.PeakGBsFrom(w.AccessBreakdown(t, llcMB, cores), cores, ipc)
}

// PeakGBsFrom is PeakOffChipGBs from an access breakdown the caller has
// already computed for the same core type, LLC capacity and core count,
// so one breakdown serves both a design's IPC and its demand.
func (w *Workload) PeakGBsFrom(acc Accesses, cores int, ipc float64) float64 {
	return w.trafficGBs(acc.MemMPKITotal(), cores, ipc) * w.BWBurstFactor
}

// trafficGBs converts off-chip misses per kilo-instruction into GB/s for
// cores cores each committing ipc instructions per cycle, counting the
// dirty writebacks the misses cause.
func (w *Workload) trafficGBs(mpki float64, cores int, ipc float64) float64 {
	linesPerInstr := mpki / 1000 * (1 + w.WritebackFrac)
	instrPerSec := ipc * tech.ClockGHz * 1e9 * float64(cores)
	return instrPerSec * linesPerInstr * tech.CacheLineBytes / 1e9
}
