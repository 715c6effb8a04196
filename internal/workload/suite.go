package workload

// Workload name constants, spelled as in the thesis figures.
const (
	DataServing    = "Data Serving"
	MapReduceC     = "MapReduce-C"
	MapReduceW     = "MapReduce-W"
	MediaStreaming = "Media Streaming"
	SATSolver      = "SAT Solver"
	WebFrontend    = "Web Frontend"
	WebSearch      = "Web Search"
)

// suite holds the seven CloudSuite workload models in the order the
// thesis plots them. The calibration provenance for each constant is
// described in the package comment and DESIGN.md; collectively they are
// tuned so that the analytic model reproduces Figure 2.1 (per-workload
// IPC on the aggressive core), Figure 2.2 (LLC capacity sensitivity),
// Figure 4.3 (snoop rates), and the performance-density columns of
// Tables 2.3/2.4/3.2. It is built once; Suite and ByName hand out
// copies.
var suite = [...]Workload{
	common(Workload{
		Name:    DataServing,
		BaseIPC: PerCore{2.6, 1.70, 1.10},
		APKI:    55, IFetchFrac: 0.42, InstrFootprintMB: 1.2,
		MPKI1: 3.53, MPKIFloor: 1.4, Alpha: 0.44, ShareExp: 0.28,
		MLP: PerCore{2.6, 2.0, 1.05}, LLCOverlap: PerCore{0.50, 0.60, 1.0},
		SnoopPct: 4.5, ScaleLimit: 64, BWBurstFactor: 1.15,
		SWScaleCores: 16, SWScaleExp: 0.35, SharedFrac: 0.13, SharedWriteFrac: 0.45,
	}),
	common(Workload{
		Name:    MapReduceC,
		BaseIPC: PerCore{2.7, 1.80, 1.15},
		APKI:    48, IFetchFrac: 0.35, InstrFootprintMB: 1.0,
		MPKI1: 4.29, MPKIFloor: 0.9, Alpha: 0.38, ShareExp: 0.28,
		MLP: PerCore{3.0, 2.4, 1.10}, LLCOverlap: PerCore{0.50, 0.60, 1.0},
		SnoopPct: 2.0, ScaleLimit: 64, BWBurstFactor: 1.15,
		SWScaleCores: 64, SWScaleExp: 0.1, SharedFrac: 0.07, SharedWriteFrac: 0.4,
	}),
	common(Workload{
		Name:    MapReduceW,
		BaseIPC: PerCore{3.2, 2.10, 1.30},
		APKI:    45, IFetchFrac: 0.40, InstrFootprintMB: 1.0,
		MPKI1: 3.63, MPKIFloor: 1.3, Alpha: 0.48, ShareExp: 0.28,
		MLP: PerCore{2.8, 2.2, 1.05}, LLCOverlap: PerCore{0.50, 0.60, 1.0},
		SnoopPct: 2.2, ScaleLimit: 64, BWBurstFactor: 1.15,
		SWScaleCores: 64, SWScaleExp: 0.1, SharedFrac: 0.08, SharedWriteFrac: 0.4,
	}),
	common(Workload{
		Name:    MediaStreaming,
		BaseIPC: PerCore{1.75, 1.35, 0.95},
		APKI:    65, IFetchFrac: 0.55, InstrFootprintMB: 1.0,
		MPKI1: 3.79, MPKIFloor: 2.6, Alpha: 0.54, ShareExp: 0.28,
		MLP: PerCore{1.6, 1.35, 1.0}, LLCOverlap: PerCore{0.75, 0.85, 1.0},
		SnoopPct: 1.2, ScaleLimit: 16, BWBurstFactor: 1.25,
		SWScaleCores: 16, SWScaleExp: 0.5, SharedFrac: 0.09, SharedWriteFrac: 0.35,
	}),
	common(Workload{
		Name:    SATSolver,
		BaseIPC: PerCore{3.5, 2.30, 1.40},
		APKI:    40, IFetchFrac: 0.25, InstrFootprintMB: 0.5,
		MPKI1: 4.61, MPKIFloor: 0.5, Alpha: 0.55, ShareExp: 0.28,
		MLP: PerCore{2.8, 2.3, 1.10}, LLCOverlap: PerCore{0.50, 0.60, 1.0},
		SnoopPct: 1.5, ScaleLimit: 64, BWBurstFactor: 1.10,
		SWScaleCores: 16, SWScaleExp: 0.3, SharedFrac: 0.051, SharedWriteFrac: 0.4,
	}),
	common(Workload{
		Name:    WebFrontend,
		BaseIPC: PerCore{3.6, 2.35, 1.45},
		APKI:    52, IFetchFrac: 0.50, InstrFootprintMB: 1.4,
		MPKI1: 2.53, MPKIFloor: 1, Alpha: 0.5, ShareExp: 0.28,
		MLP: PerCore{2.4, 1.9, 1.05}, LLCOverlap: PerCore{0.55, 0.65, 1.0},
		SnoopPct: 5.5, ScaleLimit: 32, BWBurstFactor: 1.15,
		SWScaleCores: 32, SWScaleExp: 0.15, SharedFrac: 0.19, SharedWriteFrac: 0.45,
	}),
	common(Workload{
		Name:    WebSearch,
		BaseIPC: PerCore{3.8, 2.50, 1.50},
		APKI:    42, IFetchFrac: 0.48, InstrFootprintMB: 1.3,
		MPKI1: 2.24, MPKIFloor: 0.9, Alpha: 0.5, ShareExp: 0.28,
		MLP: PerCore{2.5, 2.0, 1.05}, LLCOverlap: PerCore{0.55, 0.65, 1.0},
		SnoopPct: 2.0, ScaleLimit: 32, BWBurstFactor: 1.15,
		SWScaleCores: 16, SWScaleExp: 0.3, SharedFrac: 0.1, SharedWriteFrac: 0.4,
	}),
}

// common sets the parameters every suite workload shares.
func common(w Workload) Workload {
	w.ConvAPKIFactor = 0.60
	w.WritebackFrac = 0.20
	return w
}

// Suite returns a copy of the seven CloudSuite workload models in the
// order the thesis plots them; the caller may modify it freely.
func Suite() []Workload {
	out := suite
	return out[:]
}

// ByName returns a copy of the suite workload with the given name, or
// false.
func ByName(name string) (Workload, bool) {
	for i := range suite {
		if suite[i].Name == name {
			return suite[i], true
		}
	}
	return Workload{}, false
}

// Names returns the workload names in plot order.
func Names() []string {
	out := make([]string, len(suite))
	for i := range suite {
		out[i] = suite[i].Name
	}
	return out
}
