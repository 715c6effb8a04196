// The machine pool. A structural sweep — associativity, MSHR, bank, or
// core-count what-ifs — runs hundreds of points, and before this pool
// every point paid to allocate and zero a multi-MB LLC tag image, per-
// core L1 arrays, and the kernel's scheduling state, only to discard
// them milliseconds later. Machines are instead keyed by their
// allocation geometry (machineShape) and recycled: a finished machine
// returns to the pool, and the next point of the same shape resets it
// in place (structMachine.reset restores cold state exactly — the
// pooled-vs-fresh golden test asserts byte-identical results). The
// warm-start LLC image is memoized separately (prefillImages), so a
// recycled machine replays it with array copies instead of re-inserting
// the workload's whole resident footprint.
package sim

import (
	"runtime"
	"sync"

	"scaleout/internal/cache"
	"scaleout/internal/tech"
)

// machineShape is everything that determines a structural machine's
// allocation sizes — and therefore which configurations can reuse its
// arrays. Semantics (workload, seed, latencies) are deliberately
// excluded: reset re-derives them from the new configuration.
type machineShape struct {
	cores     int
	banks     int
	bankBytes int
	l1iBytes  int
	l1dBytes  int
	l1Ways    int
	mshrs     int
	chans     int
	dirCores  int
}

// shapeOf computes the allocation geometry of a defaults-applied
// configuration, mirroring the sizing rules in newStructMachine and
// newKernel.
func shapeOf(cfg StructuralConfig) machineShape {
	spec := tech.Cores(cfg.CoreType)
	banks := cfg.base().banksFor()
	return machineShape{
		cores:     cfg.Cores,
		banks:     banks,
		bankBytes: int(cfg.LLCMB * 1024 * 1024 / float64(banks)),
		l1iBytes:  spec.L1IKB * 1024,
		l1dBytes:  spec.L1DKB * 1024,
		l1Ways:    spec.L1Ways,
		mshrs:     cfg.L1MSHRs,
		chans:     cfg.MemChannels,
		dirCores:  min(cfg.Cores, 64),
	}
}

// structMachinePool holds idle machines per shape. Retention is bounded
// globally; when the bound is hit the oldest pooled machine (FIFO
// across shapes) is dropped so a shape-diverse harness cannot pin
// arbitrary memory.
type structMachinePool struct {
	mu    sync.Mutex
	free  map[machineShape][]*structMachine
	order []machineShape // one entry per pooled machine, in put order
	limit int
	total int
}

var machinePool = &structMachinePool{
	free:  map[machineShape][]*structMachine{},
	limit: 2 * runtime.GOMAXPROCS(0),
}

func (p *structMachinePool) get(shape machineShape) *structMachine {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.free[shape]
	if len(list) == 0 {
		return nil
	}
	m := list[len(list)-1]
	p.free[shape] = list[:len(list)-1]
	p.total--
	// Drop the newest order entry for this shape (the lists are LIFO).
	for i := len(p.order) - 1; i >= 0; i-- {
		if p.order[i] == shape {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	return m
}

func (p *structMachinePool) put(m *structMachine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total >= p.limit {
		// Evict the oldest pooled machine of any shape, clearing its
		// slot so the multi-MB machine is actually collectable instead
		// of lingering in the slice's backing array.
		oldest := p.order[0]
		p.order = p.order[1:]
		list := p.free[oldest]
		copy(list, list[1:])
		list[len(list)-1] = nil
		p.free[oldest] = list[:len(list)-1]
		p.total--
	}
	p.free[m.shape] = append(p.free[m.shape], m)
	p.order = append(p.order, m.shape)
	p.total++
}

// acquireStructMachine returns a machine ready to run cfg: a pooled
// machine of matching shape reset in place, or a fresh construction.
func acquireStructMachine(cfg StructuralConfig) (*structMachine, error) {
	if m := machinePool.get(shapeOf(cfg)); m != nil {
		if err := m.reset(cfg); err != nil {
			return nil, err
		}
		return m, nil
	}
	return newStructMachine(cfg)
}

// prefillKey identifies a warm-start LLC image: the fill replays the
// workload's resident footprint (instruction blocks, the shared
// secondary working set, the shared pool — the latter two have fixed
// sizes) into the bank geometry, so those are the only inputs.
type prefillKey struct {
	instrFootprintMB float64
	banks            int
	bankBytes        int
}

// prefillImage is the memoized post-fill state of every LLC bank and
// victim cache (frozen clones, only ever read via CopyStateFrom), plus
// the off-chip traffic the fill generated.
type prefillImage struct {
	llc          []*cache.SetAssoc
	victims      []*cache.Victim
	offChipLines uint64
}

// prefillImageCache holds warm-start images, FIFO-bounded like the
// machine pool — each image clones a full LLC, so an unbounded map
// would let a geometry-diverse sweep pin arbitrary memory. An evicted
// key just replays its fill on the next miss.
type prefillImageCache struct {
	mu     sync.Mutex
	images map[prefillKey]*prefillImage
	order  []prefillKey
	limit  int
}

var prefillImages = &prefillImageCache{
	images: map[prefillKey]*prefillImage{},
	limit:  8,
}

func (c *prefillImageCache) load(key prefillKey) (*prefillImage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.images[key]
	return img, ok
}

func (c *prefillImageCache) store(key prefillKey, img *prefillImage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.images[key]; ok {
		return // another machine raced the same deterministic fill
	}
	if len(c.order) >= c.limit {
		delete(c.images, c.order[0])
		c.order = c.order[1:]
	}
	c.images[key] = img
	c.order = append(c.order, key)
}
