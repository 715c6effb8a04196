// Package sim is the cycle-driven multicore timing simulator that stands
// in for the thesis's Flexus/Simics full-system infrastructure (Sections
// 3.3 and 4.3.4). It models, per cycle: cores (issue-width and base-CPI
// limited, with front-end stalls on instruction fetches, bounded
// memory-level parallelism for out-of-order cores, and blocking loads for
// in-order cores), a banked NUCA/UCA last-level cache with per-bank
// queueing, a real coherence directory over the shared working set, the
// interconnect (latency, serialization, per-kind topology), and memory
// channels with finite bandwidth.
//
// The simulator is trace-driven: each committed instruction draws its
// memory behaviour (instruction fetch misses, data accesses, hit/miss,
// sharing) from the calibrated workload model using a deterministic
// per-core RNG, so runs are exactly reproducible. What the simulator adds
// over the analytic model — and what Figure 3.3's validation measures —
// is timing fidelity: queueing at banks and channels, MLP saturation,
// burstiness, and software-scalability derating.
//
// Two simulators share one event-scheduled kernel (kernel.go): the
// statistical machine in this file draws cache behaviour from the
// calibrated curves, while the structural machine (structural.go)
// replays synthetic streams through real cache arrays. Each plugs its
// access model into the kernel as a coreModel; the kernel supplies the
// scheduler, the bank/channel/directory timing spine, and the stats.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"scaleout/internal/cache"
	"scaleout/internal/exp/engine"
	"scaleout/internal/noc"
	"scaleout/internal/stats"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Config describes one simulated pod or chip.
type Config struct {
	Workload workload.Workload
	CoreType tech.CoreType
	Cores    int
	LLCMB    float64
	Net      noc.Config

	// MemChannels is the number of memory channels (default: enough for
	// the configuration per the provisioning rule, minimum 1).
	MemChannels int

	// WarmupCycles are simulated but not measured (default 20000).
	// MeasureCycles are measured (default 50000, as in SimFlex runs).
	WarmupCycles  int
	MeasureCycles int

	// Seed selects the deterministic random stream (default 1).
	Seed uint64

	// DisableSWScaling turns off the software-scalability derating, for
	// direct comparison against the analytic model's hardware potential.
	DisableSWScaling bool
}

// Result reports the measured behaviour of one simulation. The JSON
// field names are the wire format of the soprocd sweep API
// (internal/serve) and must stay stable.
type Result struct {
	Cycles          int     `json:"cycles"`
	Instructions    uint64  `json:"instructions"` // application instructions committed (all cores)
	AppIPC          float64 `json:"app_ipc"`      // aggregate application IPC — the thesis metric
	PerCoreIPC      float64 `json:"per_core_ipc"`
	LLCAccesses     uint64  `json:"llc_accesses"`
	LLCMisses       uint64  `json:"llc_misses"`
	SnoopRatePct    float64 `json:"snoop_rate_pct"`   // % of LLC accesses triggering a snoop (Fig 4.3)
	AvgLLCLatency   float64 `json:"avg_llc_latency"`  // average end-to-end LLC hit latency, cycles
	OffChipGBs      float64 `json:"off_chip_gbs"`     // average off-chip bandwidth used
	DirectoryBlocks int     `json:"directory_blocks"` // blocks tracked by the coherence directory

	// Source tags how the result was produced. The simulators leave it
	// empty; the tiered evaluator (internal/tier) sets "surrogate" on
	// results it answered from the analytic model in fast mode, so a
	// caller — or a downstream reader of the sweep API — can always tell
	// a certified approximation from a measured simulation. Exact
	// results are genuine simulator output and keep the empty tag, which
	// also keeps their wire form byte-identical to a direct run.
	Source string `json:"source,omitempty"`
}

// MissRatio returns LLC misses over accesses.
func (r Result) MissRatio() float64 {
	if r.LLCAccesses == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(r.LLCAccesses)
}

func (c *Config) applyDefaults() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: %d cores", c.Cores)
	}
	if c.LLCMB <= 0 {
		return fmt.Errorf("sim: %vMB LLC", c.LLCMB)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Net.Kind == 0 && c.Net.Cores == 0 { // zero Config: default crossbar
		c.Net = noc.New(noc.Crossbar, c.Cores)
	}
	if c.MemChannels < 1 {
		c.MemChannels = 1 + c.Cores/16
	}
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = 20000
	}
	if c.MeasureCycles <= 0 {
		c.MeasureCycles = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Canonical returns the configuration with every default applied — the
// form under which two Configs describe the same simulation. Experiment
// engines key sweep points by it (Key), so a Config with an
// explicit default (say, Seed 1) deduplicates against one that left the
// field zero. It reports an error for invalid configurations.
func (c Config) Canonical() (Config, error) {
	err := c.applyDefaults()
	return c, err
}

// Key is the memo key under which experiment engines (internal/exp)
// deduplicate identical sweep points: "sim:" plus the SHA-256 of the
// defaults-applied configuration's wire fields (see configKey). Invalid
// configurations key their raw fields under a marker no valid key
// carries; running them reports the validation error.
func (c Config) Key() string {
	cc, err := c.Canonical()
	if err != nil {
		return configKey(c.wireFields(), false)
	}
	return configKey(cc.wireFields(), true)
}

// banksFor mirrors the analytic model's banking rule (Table 3.1): UCA
// designs have one bank per four cores; NUCA fabrics one bank per tile,
// except NOC-Out, which concentrates two banks in each of its LLC tiles.
func (c Config) banksFor() int {
	switch c.Net.Kind {
	case noc.Crossbar, noc.Ideal:
		b := (c.Cores + 3) / 4
		if b < 4 {
			b = 4 // a shared cache is always built from at least four banks
		}
		return b
	case noc.NOCOut:
		t := c.Net.LLCTiles
		if t <= 0 {
			t = 8
		}
		return 2 * t
	default:
		return c.Cores
	}
}

// sharedPoolBlocks is the size of the read-write shared working set the
// directory tracks (locks, allocator and session metadata): 512 blocks =
// 32KB, deliberately small — scale-out requests are independent.
const sharedPoolBlocks = 512

// Run simulates the configuration and returns measured results.
func Run(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	m, err := newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	runEvent(&m.kernel, m, cfg.WarmupCycles)
	m.resetStats()
	runEvent(&m.kernel, m, cfg.MeasureCycles)
	return m.result(), nil
}

// sampleSeed derives the i-th sample's seed from the base configuration.
func sampleSeed(base uint64, i int) uint64 { return base + uint64(i)*0x9E37 }

// RunSampled runs n independent samples with distinct seeds and returns
// the per-sample results plus an accumulator over aggregate IPC — the
// SimFlex-style sampling methodology (Section 3.3) that lets callers
// check the 95% confidence interval. Samples fan out across the default
// experiment engine's worker pool; see RunSampledContext to choose the
// engine.
func RunSampled(cfg Config, n int) ([]Result, *stats.Accumulator, error) {
	return RunSampledContext(context.Background(), cfg, n)
}

// RunSampledContext is RunSampled on the context's experiment engine
// (engine.FromContext): samples run in parallel on the engine's worker
// pool and are memoized per seed like any other sweep point. Results
// are returned in seed order and are byte-identical to a serial,
// single-worker run.
//
// Do not call it from inside a computation already running on the same
// engine (e.g. an exp.Func point): the outer computation holds a worker
// slot while the samples wait for one, which deadlocks a small pool.
// Declare the samples as top-level sweep points instead.
func RunSampledContext(ctx context.Context, cfg Config, n int) ([]Result, *stats.Accumulator, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("sim: %d samples", n)
	}
	e := engine.FromContext(ctx)
	out := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = sampleSeed(cfg.Seed, i)
		wg.Add(1)
		go func(i int, c Config) {
			defer wg.Done()
			v, err := e.Do(ctx, c.Key(), func() (any, error) { return Run(c) })
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = v.(Result)
		}(i, c)
	}
	wg.Wait()
	if err := engine.FirstError(errs, nil); err != nil {
		return nil, nil, err
	}
	var acc stats.Accumulator
	for _, r := range out {
		acc.Add(r.AppIPC)
	}
	return out, &acc, nil
}

// machine is the statistical simulator: the shared kernel plus cores
// whose memory behaviour is drawn from the calibrated workload curves.
type machine struct {
	kernel
	cores []coreState
}

// cfgDerived caches per-run constants derived from the Config.
type cfgDerived struct {
	Config
	pInstr      float64 // P(instruction slot performs an LLC I-fetch)
	pData       float64 // P(instruction slot performs an LLC data access)
	pAccess     float64 // pInstr + pData, the issue loop's second branch
	pMissInstr  float64 // P(I-fetch misses LLC)
	pMissData   float64 // P(data access misses LLC)
	baseIPC     float64
	width       int
	overlap     float64
	slots       int // outstanding off-chip misses an OoO core sustains
	netLat      int64
	replyLat    int64
	bankLat     int64
	memLat      int64
	lineCycles  int64 // channel occupancy per line
	banks       int
	bankBusy    int64 // cycles a bank is occupied per request
	swEff       float64
	writebackPr float64
}

func derive(cfg Config) cfgDerived {
	w, t := cfg.Workload, cfg.CoreType
	acc := w.AccessBreakdown(t, cfg.LLCMB, cfg.Cores)
	iAPKI := acc.IHitAPKI + acc.IMissMPKI
	dAPKI := acc.DHitAPKI + acc.DMissMPKI

	d := cfgDerived{Config: cfg}
	d.pInstr = iAPKI / 1000
	d.pData = dAPKI / 1000
	d.pAccess = d.pInstr + d.pData
	if iAPKI > 0 {
		d.pMissInstr = acc.IMissMPKI / iAPKI
	}
	if dAPKI > 0 {
		d.pMissData = acc.DMissMPKI / dAPKI
	}
	d.baseIPC = w.BaseIPC.At(t)
	d.width = tech.Cores(t).Width
	d.overlap = w.LLCOverlap.At(t)
	d.slots = int(math.Round(w.MLP.At(t)))
	if d.slots < 1 {
		d.slots = 1
	}
	if t == tech.InOrder {
		d.slots = 1
	}
	d.netLat = int64(math.Round(cfg.Net.OneWayLatency()))
	d.replyLat = d.netLat + int64(cfg.Net.ReplySerializationCycles())
	d.banks = cfg.banksFor()
	d.bankLat = int64(tech.LLCBankLatency(cfg.LLCMB / float64(d.banks)))
	d.bankBusy = 1
	if cfg.Net.Kind == noc.NOCOut {
		// NOC-Out concentrates two banks behind each LLC-tile router;
		// the shared port halves the accept rate (Section 4.4.1 notes
		// the resulting bank contention on Data Serving).
		d.bankBusy = 2
	}
	d.memLat = int64(tech.MemoryLatencyCycles)
	gbs := tech.DDR3UsableGBs
	d.lineCycles = int64(math.Ceil(float64(tech.CacheLineBytes) * tech.ClockGHz / gbs))
	d.swEff = 1
	if !cfg.DisableSWScaling {
		d.swEff = w.SWEfficiency(cfg.Cores)
	}
	d.writebackPr = w.WritebackFrac
	return d
}

func newMachine(cfg Config) (*machine, error) {
	k, err := newKernel(cfg)
	if err != nil {
		return nil, err
	}
	m := &machine{
		kernel: k,
		cores:  make([]coreState, cfg.Cores),
	}
	for i := range m.cores {
		m.cores[i] = newCoreState(cfg.Seed, i, m.cfg.slots)
	}
	m.attach(m)
	return m, nil
}

// core returns core i's scheduling state to the kernel.
func (m *machine) core(i int) *coreState { return &m.cores[i] }

// stepActive advances core i through one active cycle: retirement, then
// the issue loop. The kernel has already drained stall debt and waited
// out front-end or blocking-load stalls.
func (m *machine) stepActive(i int) {
	c := &m.cores[i]
	// Retire completed off-chip loads to free MLP slots.
	c.retireSlots(m.now)

	// Issue budget and instruction count commit once per step; see the
	// structural stepActive for the rationale.
	credit := c.credit + m.cfg.baseIPC
	issued := uint64(0)
	for n := 0; credit >= 1 && n < m.cfg.width; n++ {
		credit--
		issued++
		u := c.rng.Float64()
		switch {
		case u < m.cfg.pInstr:
			// Instruction fetch from the LLC: the front end stalls for
			// the full access latency.
			c.blockedUntil = m.access(c, true)
			goto commit
		case u < m.cfg.pAccess:
			isWrite := false
			shared := c.rng.Float64() < m.cfg.Workload.SharedFrac
			if shared {
				isWrite = c.rng.Float64() < m.cfg.Workload.SharedWriteFrac
			}
			done := m.dataAccess(i, c, shared, isWrite)
			if m.cfg.CoreType == tech.InOrder {
				c.blockedUntil = done
				goto commit
			}
			lat := done - m.now
			if m.isMissLatency(lat) {
				// Off-chip load: occupy an MLP slot; block when the
				// window is exhausted.
				if len(c.slotDone) >= m.cfg.slots {
					c.blockedUntil = c.slotMin
					goto commit
				}
				c.addSlot(done)
			} else {
				// LLC hit: the out-of-order window hides part of the
				// latency; the exposed fraction accrues as stall debt.
				c.stallDebt += m.cfg.overlap * float64(lat)
			}
		}
	}
commit:
	c.credit = credit
	m.instructions += issued
}

// dataAccess performs a data access, consulting the directory for shared
// blocks. It returns the completion cycle.
func (m *machine) dataAccess(i int, c *coreState, shared, isWrite bool) int64 {
	if !shared {
		c.privateSeq++
		return m.access(c, false)
	}
	block := uint64(c.rng.Intn(sharedPoolBlocks))
	var res cache.AccessResult
	dirCore := i % m.dir.Cores()
	if isWrite {
		res = m.dir.Write(dirCore, block)
	} else {
		res = m.dir.Read(dirCore, block)
	}
	done := m.accessShared(c, res.ForwardedFromL1)
	if res.Snoops > 0 && !res.ForwardedFromL1 {
		// Invalidations complete in the background; only a fraction of
		// their latency is on the critical path (write acknowledgment).
		done += m.cfg.netLat
	}
	return done
}

// access performs a plain LLC access (instruction fetch or private data).
func (m *machine) access(c *coreState, isInstr bool) int64 {
	pMiss := m.cfg.pMissData
	if isInstr {
		pMiss = m.cfg.pMissInstr
	}
	miss := c.rng.Float64() < pMiss
	return m.timeAccess(&c.rng, miss, false)
}

// accessShared performs the LLC-side timing of a shared-block access.
// Shared metadata is hot and hits on chip; a forward adds an L1-to-L1
// round trip through the LLC fabric.
func (m *machine) accessShared(c *coreState, forwarded bool) int64 {
	return m.timeAccess(&c.rng, false, forwarded)
}
