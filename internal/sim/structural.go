package sim

import (
	"fmt"
	"math/bits"

	"scaleout/internal/cache"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/trace"
	"scaleout/internal/workload"
)

// StructuralConfig describes a run of the structural simulator: instead
// of drawing cache behaviour from the calibrated workload curves, each
// core replays a synthetic reference stream (internal/trace) against
// real set-associative L1 arrays with MSHRs, and the LLC is a real
// banked tag array. Miss rates therefore *emerge* from the stream — an
// independent cross-check of the statistical calibration, and the mode
// to use for microarchitectural what-ifs (associativity, MSHR counts,
// bank counts) that the statistical model cannot see.
type StructuralConfig struct {
	Workload workload.Workload
	CoreType tech.CoreType
	Cores    int
	LLCMB    float64
	Net      noc.Config

	MemChannels   int
	WarmupCycles  int // default 150000 (the LLC must fill)
	MeasureCycles int
	Seed          uint64

	L1MSHRs int // default 32 (Table 2.2)
}

// StructuralResult extends the timing results with the emergent cache
// behaviour of the structural run. As with Result, the JSON field names
// are the soprocd sweep API's wire format.
type StructuralResult struct {
	Result
	L1IMPKI      float64 `json:"l1i_mpki"`       // emergent L1-I misses per kilo-instruction
	L1DMPKI      float64 `json:"l1d_mpki"`       // emergent L1-D misses per kilo-instruction
	LLCMissPct   float64 `json:"llc_miss_pct"`   // emergent LLC miss ratio (%)
	MSHRStallPct float64 `json:"mshr_stall_pct"` // % of cycles lost to full MSHRs
}

func (c *StructuralConfig) applyDefaults() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: %d cores", c.Cores)
	}
	if c.LLCMB <= 0 {
		return fmt.Errorf("sim: %vMB LLC", c.LLCMB)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Net.Kind == 0 && c.Net.Cores == 0 {
		c.Net = noc.New(noc.Crossbar, c.Cores)
	}
	if c.MemChannels < 1 {
		c.MemChannels = 1 + c.Cores/16
	}
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = 60000
	}
	if c.MeasureCycles <= 0 {
		c.MeasureCycles = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.L1MSHRs <= 0 {
		c.L1MSHRs = 32
	}
	return nil
}

// Canonical returns the configuration with every default applied, the
// form experiment engines key points by (see Config.Canonical).
func (c StructuralConfig) Canonical() (StructuralConfig, error) {
	err := c.applyDefaults()
	return c, err
}

// Key is the memo key under which experiment engines deduplicate
// identical structural sweep points: "structural:" plus the SHA-256 of
// the defaults-applied configuration's wire fields, derived exactly as
// Config.Key is.
func (c StructuralConfig) Key() string {
	cc, err := c.Canonical()
	if err != nil {
		return configKey(c.wireFields(), false)
	}
	return configKey(cc.wireFields(), true)
}

// base maps the structural configuration onto the statistical Config the
// shared kernel derives its bank, channel, and directory sizing from.
func (c StructuralConfig) base() Config {
	return Config{
		Workload: c.Workload, CoreType: c.CoreType, Cores: c.Cores,
		LLCMB: c.LLCMB, Net: c.Net, MemChannels: c.MemChannels,
		WarmupCycles: c.WarmupCycles, MeasureCycles: c.MeasureCycles,
		Seed: c.Seed,
	}
}

// pendingMiss is one outstanding L1 miss: the block and the cycle its
// fill returns.
type pendingMiss struct {
	block uint64
	done  int64
}

// structCore is the per-core structural state.
type structCore struct {
	coreState
	gen  *trace.Generator
	l1i  *cache.SetAssoc
	l1d  *cache.SetAssoc
	mshr *cache.MSHR
	// outstanding MSHR entries and their completion cycles. A small
	// slice beats a map here: the retire scan runs every active cycle,
	// and every use (retire filter, earliest-completion min, secondary
	// lookup) is order-insensitive. The backing array is sized to the
	// MSHR capacity up front, so the miss path never allocates.
	pending []pendingMiss
	// pendingMin caches min(pending.done) (noCompletion when empty) so
	// the per-cycle retire scan and the MSHR-full earliest-completion
	// lookup are O(1) in the common case.
	pendingMin int64

	instrs     uint64
	l1iMisses  uint64
	l1dMisses  uint64
	mshrStalls uint64
}

// structMachine is the structural simulator: the shared kernel's timing
// spine (scheduler, banks, channels, directory) plus real cache
// structures replayed by synthetic reference streams.
type structMachine struct {
	kernel
	scfg    StructuralConfig
	cores   []structCore
	llc     []*cache.SetAssoc // one array per bank
	victims []*cache.Victim   // 16-entry victim cache per bank (Table 2.2)
	shape   machineShape      // allocation geometry, the pool's reuse key

	// Bank routing: the harness's bank counts are powers of two, where
	// selection is a mask and the index a shift instead of the generic
	// divide the miss path would otherwise pay.
	bankPow2  bool
	bankMask  uint64
	bankShift uint

	// err records a structural invariant violation (an MSHR file full
	// with nothing outstanding) discovered mid-run; the offending core
	// is parked and the error surfaces when the run returns.
	err error
}

// RunStructural simulates the configuration in structural mode.
func RunStructural(cfg StructuralConfig) (StructuralResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return StructuralResult{}, err
	}
	m, err := acquireStructMachine(cfg)
	if err != nil {
		return StructuralResult{}, err
	}
	res, err := m.simulate()
	if err != nil {
		// A poisoned machine is dropped, not pooled.
		return StructuralResult{}, err
	}
	machinePool.put(m)
	return res, nil
}

// simulate runs the machine's configured warmup and measured windows
// and returns the measured results, or the structural invariant
// violation that poisoned the machine mid-run.
func (m *structMachine) simulate() (StructuralResult, error) {
	runEvent(&m.kernel, m, m.scfg.WarmupCycles)
	m.resetStructStats()
	runEvent(&m.kernel, m, m.scfg.MeasureCycles)
	if m.err != nil {
		return StructuralResult{}, m.err
	}
	return m.structResult(), nil
}

func newStructMachine(cfg StructuralConfig) (*structMachine, error) {
	k, err := newKernel(cfg.base())
	if err != nil {
		return nil, err
	}
	spec := tech.Cores(cfg.CoreType)
	m := &structMachine{kernel: k, scfg: cfg, shape: shapeOf(cfg)}
	banks := m.cfg.banks
	bankBytes := int(cfg.LLCMB * 1024 * 1024 / float64(banks))
	m.llc = make([]*cache.SetAssoc, banks)
	m.victims = make([]*cache.Victim, banks)
	for i := range m.llc {
		arr, err := cache.NewSetAssoc(bankBytes, tech.LLCWays)
		if err != nil {
			return nil, fmt.Errorf("sim: LLC bank: %w", err)
		}
		m.llc[i] = arr
		vc, err := cache.NewVictim(16)
		if err != nil {
			return nil, err
		}
		m.victims[i] = vc
	}
	m.cores = make([]structCore, cfg.Cores)
	for i := range m.cores {
		gen, err := trace.NewFromWorkload(cfg.Workload, cfg.CoreType, i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		l1i, err := cache.NewSetAssoc(spec.L1IKB*1024, spec.L1Ways)
		if err != nil {
			return nil, err
		}
		l1d, err := cache.NewSetAssoc(spec.L1DKB*1024, spec.L1Ways)
		if err != nil {
			return nil, err
		}
		mshr, err := cache.NewMSHR(cfg.L1MSHRs)
		if err != nil {
			return nil, err
		}
		m.cores[i] = structCore{
			coreState: newCoreState(cfg.Seed, i, m.cfg.slots),
			gen:       gen, l1i: l1i, l1d: l1d, mshr: mshr,
			pending:    make([]pendingMiss, 0, cfg.L1MSHRs),
			pendingMin: noCompletion,
		}
	}
	m.initBankRouting()
	m.warmLLC()
	m.attach(m)
	return m, nil
}

// reset restores the machine to the exact state newStructMachine(cfg)
// would construct — cold caches, reseeded streams, warm-start LLC image
// — while reusing every allocation. The pool only pairs a machine with
// configurations of identical shape (shapeOf), so all array lengths
// already match; everything semantic is re-derived from cfg here.
func (m *structMachine) reset(cfg StructuralConfig) error {
	m.cfg = derive(cfg.base())
	m.scfg = cfg
	m.now = 0
	m.err = nil
	clear(m.banks)
	clear(m.chans)
	m.dir.Reset()
	m.resetStats()
	for i := range m.cores {
		c := &m.cores[i]
		gen, err := trace.NewFromWorkload(cfg.Workload, cfg.CoreType, i, cfg.Seed)
		if err != nil {
			return err
		}
		c.gen = gen
		c.coreState.reset(cfg.Seed, i)
		c.l1i.Reset()
		c.l1d.Reset()
		c.mshr.Reset()
		c.pending = c.pending[:0]
		c.pendingMin = noCompletion
		c.instrs, c.l1iMisses, c.l1dMisses, c.mshrStalls = 0, 0, 0, 0
	}
	m.initBankRouting()
	m.warmLLC() // owns LLC bank and victim state: copies or rebuilds it
	m.attach(m)
	return nil
}

// initBankRouting precomputes the bank-selection mask and index shift
// when the bank count is a power of two (it always is for the thesis's
// configurations).
func (m *structMachine) initBankRouting() {
	banks := uint64(len(m.llc))
	m.bankPow2 = banks&(banks-1) == 0
	if m.bankPow2 {
		m.bankMask = banks - 1
		m.bankShift = uint(bits.TrailingZeros64(banks))
	}
}

// bankOf routes a block to its LLC bank and strips the bank-selection
// bits off the in-bank index, so every set of the bank array is usable.
func (m *structMachine) bankOf(block uint64) (int, uint64) {
	if m.bankPow2 {
		return int(block & m.bankMask), block >> m.bankShift
	}
	banks := uint64(len(m.llc))
	return int(block % banks), block / banks
}

// warmLLC applies the checkpoint-style warm start (Section 3.3:
// simulations launch from checkpoints with warmed caches): the LLC is
// pre-filled with the blocks a steady-state system would hold, and the
// remaining warmup cycles settle the L1s, queues, and directory. The
// post-fill image depends only on the workload's footprint and the bank
// geometry, so it is computed once per (footprint, banks, bank size)
// and replayed into pooled machines with array copies instead of
// hundreds of thousands of tag-array inserts.
//
// warmLLC owns the LLC bank and victim state outright: an image hit
// overwrites it completely, and only the (once per key) miss path pays
// to reset the arrays before the fill. Callers must not reset them
// first — on the pooled path that would touch every byte twice.
func (m *structMachine) warmLLC() {
	key := prefillKey{
		instrFootprintMB: m.scfg.Workload.InstrFootprintMB,
		banks:            len(m.llc),
		bankBytes:        m.llc[0].CapacityBytes(),
	}
	if img, ok := prefillImages.load(key); ok {
		for i := range m.llc {
			m.llc[i].CopyStateFrom(img.llc[i])
			m.victims[i].CopyStateFrom(img.victims[i])
		}
		m.offChipLines += img.offChipLines
		return
	}
	for i := range m.llc {
		m.llc[i].Reset()
		m.victims[i].Reset()
	}
	before := m.offChipLines
	for _, block := range m.cores[0].gen.ResidentBlocks() {
		m.llcInsert(block, false)
	}
	img := &prefillImage{
		llc:          make([]*cache.SetAssoc, len(m.llc)),
		victims:      make([]*cache.Victim, len(m.victims)),
		offChipLines: m.offChipLines - before,
	}
	for i := range m.llc {
		arr, err := cache.NewSetAssoc(m.llc[i].CapacityBytes(), m.llc[i].Ways())
		if err != nil {
			return // geometry was already validated; keep the live fill
		}
		arr.CopyStateFrom(m.llc[i])
		img.llc[i] = arr
		vc, err := cache.NewVictim(m.victims[i].Capacity())
		if err != nil {
			return
		}
		vc.CopyStateFrom(m.victims[i])
		img.victims[i] = vc
	}
	prefillImages.store(key, img)
}

func (m *structMachine) resetStructStats() {
	m.resetStats()
	for i := range m.cores {
		c := &m.cores[i]
		c.instrs, c.l1iMisses, c.l1dMisses, c.mshrStalls = 0, 0, 0, 0
	}
}

// core returns core i's scheduling state to the kernel.
func (m *structMachine) core(i int) *coreState { return &m.cores[i].coreState }

// stepActive advances core i through one active cycle of the structural
// path: MSHR/MLP retirement, then the issue loop through the real L1s.
func (m *structMachine) stepActive(i int) {
	c := &m.cores[i]
	// Retire completed misses: free MSHR entries and MLP slots. The
	// guards skip the scans while nothing is due — most active cycles.
	if c.pendingMin <= m.now {
		livePending := c.pending[:0]
		earliest := noCompletion
		for _, p := range c.pending {
			if p.done > m.now {
				livePending = append(livePending, p)
				if p.done < earliest {
					earliest = p.done
				}
			} else {
				c.mshr.Complete(p.block)
			}
		}
		c.pending = livePending
		c.pendingMin = earliest
	}
	c.retireSlots(m.now)

	// The issue budget and instruction counters stay in registers for
	// the whole step and commit once at the end — per-instruction
	// memory RMWs on them were a measurable slice of the issue loop.
	credit := c.credit + m.cfg.baseIPC
	issued := uint64(0)
	for n := 0; credit >= 1 && n < m.cfg.width; n++ {
		credit--
		issued++

		// Instruction fetch through the real L1-I. The gate draw is
		// inlined here; the access body runs one fetch in twelve.
		if c.gen.WantInstr() {
			acc := c.gen.InstrAccess()
			if !c.l1i.Lookup(acc.Block) {
				c.l1iMisses++
				done, stalled := m.structMiss(i, c, acc)
				if !stalled {
					c.l1i.Insert(acc.Block, false)
					c.blockedUntil = done // front end stalls on I-misses
				}
				goto commit
			}
		}

		// Data access through the real L1-D.
		if !c.gen.WantData() {
			continue
		}
		if acc := c.gen.DataAccess(); !c.l1d.Access(acc.Block, acc.IsWrite) {
			c.l1dMisses++
			done, stalled := m.structMiss(i, c, acc)
			if stalled {
				goto commit
			}
			if ev, evicted := c.l1d.Insert(acc.Block, acc.IsWrite); evicted && ev.Dirty {
				// Dirty L1 writeback lands in the LLC.
				m.llcInsert(ev.Block, true)
			}
			lat := done - m.now
			if m.cfg.CoreType == tech.InOrder {
				c.blockedUntil = done
				goto commit
			}
			if m.isMissLatency(lat) {
				if len(c.slotDone) >= m.cfg.slots {
					c.blockedUntil = c.slotMin
					goto commit
				}
				c.addSlot(done)
			} else {
				c.stallDebt += m.cfg.overlap * float64(lat)
			}
		}
	}
commit:
	c.credit = credit
	c.instrs += issued
	m.instructions += issued
}

// structMiss services an L1 miss through the MSHR, the LLC tag arrays,
// the directory (for shared blocks), and memory. It returns the
// completion cycle, or stalled=true when the MSHR file is full.
func (m *structMachine) structMiss(i int, c *structCore, acc trace.Access) (int64, bool) {
	primary, ok := c.mshr.Allocate(acc.Block)
	if !ok {
		// MSHR full: stall until the earliest outstanding miss returns.
		c.mshrStalls++
		if len(c.pending) == 0 {
			// A full MSHR file with no outstanding miss cannot retire:
			// the earliest-completion lookup would leave the core
			// blocked on the noCompletion sentinel forever. Record the
			// invariant violation and park the core; the error surfaces
			// when the run returns.
			m.err = fmt.Errorf("sim: core %d: MSHR file full (%d entries) with no outstanding miss to retire",
				i, c.mshr.Capacity())
			c.blockedUntil = m.now + (1 << 40)
			return c.blockedUntil, true
		}
		c.blockedUntil = c.pendingMin
		return c.pendingMin, true
	}
	if !primary {
		// Secondary miss: completes with the primary.
		for _, p := range c.pending {
			if p.block == acc.Block {
				return p.done, false
			}
		}
		return 0, false // unreachable: pending mirrors the MSHR file
	}

	// Directory for coherence-visible shared blocks.
	var forwarded bool
	if acc.Shared {
		dirCore := i % m.dir.Cores()
		var res cache.AccessResult
		if acc.IsWrite {
			res = m.dir.Write(dirCore, acc.Block)
		} else {
			res = m.dir.Read(dirCore, acc.Block)
		}
		forwarded = res.ForwardedFromL1
	}

	// Real LLC lookup in the block's bank. Misses get a second chance
	// in the bank's 16-entry victim cache.
	bank, idx := m.bankOf(acc.Block)
	hit := m.llc[bank].Lookup(idx) || forwarded
	if !hit {
		if vHit, vDirty := m.victims[bank].Probe(idx); vHit {
			hit = true
			m.llcInsert(acc.Block, vDirty) // promote back into the array
		}
	}
	done := m.timeAccessBank(bank, !hit, forwarded)
	if !hit {
		m.llcInsert(acc.Block, false)
	}
	c.pending = append(c.pending, pendingMiss{block: acc.Block, done: done})
	if done < c.pendingMin {
		c.pendingMin = done
	}
	return done, false
}

// llcInsert fills a block into its LLC bank, spilling dirty victims to
// the memory channels' traffic accounting.
func (m *structMachine) llcInsert(block uint64, dirty bool) {
	bank, idx := m.bankOf(block)
	if ev, evicted := m.llc[bank].Insert(idx, dirty); evicted {
		// Evicted blocks get a second chance in the victim cache; only
		// dirty spills from the victim cache go off-chip.
		if spill, spilled := m.victims[bank].Insert(ev.Block, ev.Dirty); spilled && spill.Dirty {
			m.offChipLines++
		}
	}
}

func (m *structMachine) structResult() StructuralResult {
	r := StructuralResult{Result: m.result()}
	var instrs, l1i, l1d, stalls uint64
	for i := range m.cores {
		c := &m.cores[i]
		instrs += c.instrs
		l1i += c.l1iMisses
		l1d += c.l1dMisses
		stalls += c.mshrStalls
	}
	if instrs > 0 {
		r.L1IMPKI = float64(l1i) / float64(instrs) * 1000
		r.L1DMPKI = float64(l1d) / float64(instrs) * 1000
	}
	if m.llcAccesses > 0 {
		r.LLCMissPct = 100 * float64(m.llcMisses) / float64(m.llcAccesses)
	}
	totalCycles := uint64(m.cfg.MeasureCycles) * uint64(len(m.cores))
	if totalCycles > 0 {
		r.MSHRStallPct = 100 * float64(stalls) / float64(totalCycles)
	}
	return r
}
