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

// PerCore holds one parameter's value for each core type of Table 2.2.
type PerCore struct {
	Conventional float64 `json:"conventional"`
	OoO          float64 `json:"ooo"`
	InOrder      float64 `json:"in_order"`
}

// At returns the value for core type t, or 0 for a type outside the enum.
func (p PerCore) At(t tech.CoreType) float64 {
	switch t {
	case tech.Conventional:
		return p.Conventional
	case tech.OoO:
		return p.OoO
	case tech.InOrder:
		return p.InOrder
	default:
		return 0
	}
}

// Workload is a calibrated statistical model of one scale-out
// application. It is a plain value — a copy is a deep copy — and its
// JSON form is the workload of a wire configuration (sim.WireConfig),
// so a sweep point can carry any workload, not only a suite name;
// Validate gates what a receiver accepts.
type Workload struct {
	// Name is the CloudSuite name as used in the thesis figures.
	Name string `json:"name"`

	// BaseIPC is the IPC each core type sustains when every memory
	// reference hits in the L1s — the "application instructions per
	// cycle" ceiling set by issue width, branches, and dependencies.
	BaseIPC PerCore `json:"base_ipc"`

	// APKI is the number of LLC accesses (L1 misses, instruction plus
	// data) per kilo-instruction for the 32KB-L1 cores. Conventional
	// cores with 64KB L1s see APKI * ConvAPKIFactor.
	APKI float64 `json:"apki"`

	// ConvAPKIFactor scales APKI for the conventional core's larger L1s.
	ConvAPKIFactor float64 `json:"conv_apki_factor"`

	// IFetchFrac is the fraction of LLC accesses that are instruction
	// fetches. Scale-out workloads have multi-megabyte instruction
	// footprints, so this fraction is large and the fetches nearly
	// always hit in the LLC.
	IFetchFrac float64 `json:"ifetch_frac"`

	// InstrFootprintMB is the dynamic instruction footprint resident in
	// the LLC (hundreds of KB to MB, Section 1).
	InstrFootprintMB float64 `json:"instr_footprint_mb"`

	// Miss-rate curve for data: misses per kilo-instruction to memory
	// given an effective per-workload data capacity of c MB follows
	//   m(c) = MPKIFloor + (MPKI1 - MPKIFloor) * c^(-Alpha)
	// MPKI1 is the data MPKI with 1MB of effective data capacity;
	// MPKIFloor is the compulsory/streaming floor that no cache captures.
	MPKI1     float64 `json:"mpki1"`
	MPKIFloor float64 `json:"mpki_floor"`
	Alpha     float64 `json:"alpha"`

	// ShareExp models the mild capacity pressure of sharing one LLC
	// among n cores: effective data capacity = dataMB * (1/n)^ShareExp
	// relative to the 1-core point. The thesis shows this effect is
	// small (Section 2.1.4: ~16% per-core loss from 2 to 256 cores with
	// an ideal interconnect).
	ShareExp float64 `json:"share_exp"`

	// MLP is the average number of outstanding off-chip misses an
	// out-of-order core overlaps; conventional cores overlap a bit more
	// (deeper ROB/LSQ), in-order cores essentially block (MLP ~1).
	MLP PerCore `json:"mlp"`

	// LLCOverlap is the fraction of each LLC *data* hit latency that the
	// core cannot hide (1 = fully exposed, as for in-order cores).
	// Instruction fetch latency is always fully exposed: L1-I misses
	// stall the front end (Section 2.2.3).
	LLCOverlap PerCore `json:"llc_overlap"`

	// SnoopPct is the percentage of LLC accesses that trigger a snoop
	// message to a core (Figure 4.3).
	SnoopPct float64 `json:"snoop_pct"`

	// WritebackFrac is the fraction of off-chip misses that also cause a
	// dirty writeback, adding to off-chip traffic.
	WritebackFrac float64 `json:"writeback_frac"`

	// ScaleLimit is the largest core count at which the software stack
	// scales in full-system simulation (Table 3.1): 64 for Data Serving,
	// MapReduce and SAT Solver; 32 for Web Frontend and Web Search; 16
	// for Media Streaming. The analytic model ignores it (it models
	// hardware potential); simulations respect it.
	ScaleLimit int `json:"scale_limit"`

	// BWBurstFactor is the ratio of worst-case to average off-chip
	// bandwidth demand, used when provisioning memory channels for the
	// worst case (Section 2.1.6).
	BWBurstFactor float64 `json:"bw_burst_factor"`

	// SWScaleCores and SWScaleExp model software scalability in
	// full-system simulation: beyond SWScaleCores cores, aggregate
	// application throughput is derated by (SWScaleCores/n)^SWScaleExp
	// — the effect Figure 3.3 shows at 32-64 cores on Data Serving,
	// Web Search, and SAT Solver, which the analytic model deliberately
	// does not capture.
	SWScaleCores int     `json:"sw_scale_cores"`
	SWScaleExp   float64 `json:"sw_scale_exp"`

	// SharedFrac is the fraction of data accesses that touch the small
	// read-write shared working set (locks, allocator metadata, shared
	// session state). Only these accesses can generate coherence snoops;
	// the independent-request datasets never do. SharedWriteFrac is the
	// write ratio within those accesses. Together they are calibrated so
	// the simulated directory reproduces the Figure 4.3 snoop rates.
	SharedFrac      float64 `json:"shared_frac"`
	SharedWriteFrac float64 `json:"shared_write_frac"`
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
		if ipc := w.BaseIPC.At(t); ipc <= 0 || ipc > float64(tech.Cores(t).Width) {
			return fmt.Errorf("workload %s: BaseIPC[%v]=%v exceeds width", w.Name, t, ipc)
		}
		if mlp := w.MLP.At(t); mlp < 1 {
			return fmt.Errorf("workload %s: MLP[%v]=%v below 1", w.Name, t, mlp)
		}
		if o := w.LLCOverlap.At(t); o <= 0 || o > 1 {
			return fmt.Errorf("workload %s: LLCOverlap[%v]=%v out of (0,1]", w.Name, t, o)
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

// OffChipGBs returns the average off-chip traffic in GB/s of cores
// cores, each committing ipc application instructions per cycle, whose
// LLC traffic is acc: the off-chip misses plus the dirty writebacks
// they cause.
func (w *Workload) OffChipGBs(acc Accesses, cores int, ipc float64) float64 {
	linesPerInstr := acc.MemMPKITotal() / 1000 * (1 + w.WritebackFrac)
	instrPerSec := ipc * tech.ClockGHz * 1e9 * float64(cores)
	return instrPerSec * linesPerInstr * tech.CacheLineBytes / 1e9
}

// PeakOffChipGBs is OffChipGBs scaled by the worst-case burst factor used
// for channel provisioning.
func (w *Workload) PeakOffChipGBs(acc Accesses, cores int, ipc float64) float64 {
	return w.OffChipGBs(acc, cores, ipc) * w.BWBurstFactor
}

// Latencies are the load-to-use latencies, in cycles, that the CPI
// stack charges an LLC access: an instruction fetch served by the LLC,
// a data reference served by the LLC, and an access that goes off-chip.
type Latencies struct {
	IFetch, Data, Mem float64
}

// CPI returns the cycles per instruction of one core of type t whose
// LLC traffic is acc, given the latencies lat and an effective
// memory-level parallelism mlp (the workload's MLP.At(t), or less where
// the hardware caps it). It is the first-order model's CPI stack:
//
//	CPI = 1/BaseIPC                        issue-limited execution
//	    + iHit  * IFetch                   I-fetch from LLC, fully exposed
//	    + dHit  * Data * LLCOverlap        data from LLC, partly hidden
//	    + iMiss * Mem                      I-fetch from memory, exposed
//	    + dMiss * Mem / mlp                data from memory, overlapped
//
// with each access term per instruction (its APKI / 1000), summed in
// this order.
func (w *Workload) CPI(t tech.CoreType, acc Accesses, lat Latencies, mlp float64) float64 {
	cpi := 1 / w.BaseIPC.At(t)
	cpi += acc.IHitAPKI / 1000 * lat.IFetch
	cpi += acc.DHitAPKI / 1000 * lat.Data * w.LLCOverlap.At(t)
	cpi += acc.IMissMPKI / 1000 * lat.Mem
	cpi += acc.DMissMPKI / 1000 * lat.Mem / mlp
	return cpi
}
