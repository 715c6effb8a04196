package workload

import "scaleout/internal/tech"

// WireValues is a per-core-type parameter triple in wire form. The
// Workload struct keys these parameters by tech.CoreType in maps; on
// the wire they are flattened to named fields so the JSON is
// self-describing and independent of enum values and map iteration
// order.
type WireValues struct {
	Conventional float64 `json:"conventional"`
	OoO          float64 `json:"ooo"`
	InOrder      float64 `json:"in_order"`
}

func toWireValues(m map[tech.CoreType]float64) WireValues {
	return WireValues{
		Conventional: m[tech.Conventional],
		OoO:          m[tech.OoO],
		InOrder:      m[tech.InOrder],
	}
}

func (v WireValues) toMap() map[tech.CoreType]float64 {
	return map[tech.CoreType]float64{
		tech.Conventional: v.Conventional,
		tech.OoO:          v.OoO,
		tech.InOrder:      v.InOrder,
	}
}

// Wire is the complete JSON form of a Workload: every calibrated
// parameter the analytic model and the simulators consume. It exists so
// a sweep point can carry an arbitrary workload — a perturbed suite
// entry, a synthetic stress case — across the cluster instead of only
// the seven suite names; Workload.Validate still gates what a receiver
// accepts.
type Wire struct {
	Name             string     `json:"name"`
	BaseIPC          WireValues `json:"base_ipc"`
	APKI             float64    `json:"apki"`
	ConvAPKIFactor   float64    `json:"conv_apki_factor"`
	IFetchFrac       float64    `json:"ifetch_frac"`
	InstrFootprintMB float64    `json:"instr_footprint_mb"`
	MPKI1            float64    `json:"mpki1"`
	MPKIFloor        float64    `json:"mpki_floor"`
	Alpha            float64    `json:"alpha"`
	ShareExp         float64    `json:"share_exp"`
	MLP              WireValues `json:"mlp"`
	LLCOverlap       WireValues `json:"llc_overlap"`
	SnoopPct         float64    `json:"snoop_pct"`
	WritebackFrac    float64    `json:"writeback_frac"`
	ScaleLimit       int        `json:"scale_limit"`
	BWBurstFactor    float64    `json:"bw_burst_factor"`
	SWScaleCores     int        `json:"sw_scale_cores"`
	SWScaleExp       float64    `json:"sw_scale_exp"`
	SharedFrac       float64    `json:"shared_frac"`
	SharedWriteFrac  float64    `json:"shared_write_frac"`
}

// Wire converts the Workload to its wire form, flattening the
// per-core-type maps into named triples.
func (w *Workload) Wire() Wire {
	return Wire{
		Name:             w.Name,
		BaseIPC:          toWireValues(w.BaseIPC),
		APKI:             w.APKI,
		ConvAPKIFactor:   w.ConvAPKIFactor,
		IFetchFrac:       w.IFetchFrac,
		InstrFootprintMB: w.InstrFootprintMB,
		MPKI1:            w.MPKI1,
		MPKIFloor:        w.MPKIFloor,
		Alpha:            w.Alpha,
		ShareExp:         w.ShareExp,
		MLP:              toWireValues(w.MLP),
		LLCOverlap:       toWireValues(w.LLCOverlap),
		SnoopPct:         w.SnoopPct,
		WritebackFrac:    w.WritebackFrac,
		ScaleLimit:       w.ScaleLimit,
		BWBurstFactor:    w.BWBurstFactor,
		SWScaleCores:     w.SWScaleCores,
		SWScaleExp:       w.SWScaleExp,
		SharedFrac:       w.SharedFrac,
		SharedWriteFrac:  w.SharedWriteFrac,
	}
}

// Workload converts a decoded wire form back to the Workload it
// encodes. The result is not validated here: callers run it through
// Workload.Validate (directly or via a simulator Canonical call) so an
// out-of-range spec is rejected by the same rules that gate the suite.
func (w Wire) Workload() Workload {
	return Workload{
		Name:             w.Name,
		BaseIPC:          w.BaseIPC.toMap(),
		APKI:             w.APKI,
		ConvAPKIFactor:   w.ConvAPKIFactor,
		IFetchFrac:       w.IFetchFrac,
		InstrFootprintMB: w.InstrFootprintMB,
		MPKI1:            w.MPKI1,
		MPKIFloor:        w.MPKIFloor,
		Alpha:            w.Alpha,
		ShareExp:         w.ShareExp,
		MLP:              w.MLP.toMap(),
		LLCOverlap:       w.LLCOverlap.toMap(),
		SnoopPct:         w.SnoopPct,
		WritebackFrac:    w.WritebackFrac,
		ScaleLimit:       w.ScaleLimit,
		BWBurstFactor:    w.BWBurstFactor,
		SWScaleCores:     w.SWScaleCores,
		SWScaleExp:       w.SWScaleExp,
		SharedFrac:       w.SharedFrac,
		SharedWriteFrac:  w.SharedWriteFrac,
	}
}
