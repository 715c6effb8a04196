package sim

import (
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// pod64Mesh is the high-core-count, high-stall pod the wakeup schedule
// targets.
var pod64Mesh = Config{
	Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
	Net: noc.New(noc.Mesh, 64), MemChannels: 4,
}

// structural16 is the thesis pod on the structural simulator.
var structural16 = StructuralConfig{
	Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4,
}

// BenchmarkStructMiss measures the structural L1-miss service path in
// isolation — MSHR allocate, LLC bank lookup, victim-cache probe, bank
// and channel timing, pending bookkeeping — the code an L1 miss executes
// inside stepActive. The machine is built once; the measured loop
// replays misses over a spread of blocks with periodic retirement so the
// MSHR file cycles through realistic occupancies.
func BenchmarkStructMiss(b *testing.B) {
	m := freshStructMachine(b, structural16)
	c := &m.cores[0]
	gen := c.gen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gen.WantData() {
			continue
		}
		acc := gen.DataAccess()
		if _, stalled := m.structMiss(0, c, acc); stalled {
			// Retire everything outstanding — every pending entry, so
			// no MSHR slot leaks — and advance time so the next misses
			// allocate freely.
			m.now = c.pendingMin + 1
			for _, p := range c.pending {
				c.mshr.Complete(p.block)
			}
			c.pending = c.pending[:0]
			c.pendingMin = noCompletion
		}
	}
}

// BenchmarkStructuralPooled/Fresh track the machine pool's contribution:
// the same sweep point run through recycled machines vs a fresh
// construction (multi-MB LLC arrays, L1s, wheel) per run.
func benchStructural16(b *testing.B, run func(StructuralConfig) (StructuralResult, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(structural16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStructuralPooled(b *testing.B) { benchStructural16(b, RunStructural) }
func BenchmarkStructuralFresh(b *testing.B) {
	benchStructural16(b, func(cfg StructuralConfig) (StructuralResult, error) {
		return freshStructMachine(b, cfg).simulate()
	})
}

// Kernel trajectory: the event-scheduled kernel vs the lock-step
// reference (kernel_ref_test.go) on the same workloads. Both produce
// byte-identical results (TestKernelEquivalence*), so the
// Lockstep/Event ns/op ratio of each pair is the event kernel's
// speedup; CI requires it to stay above 1.2 on 64Core and 1.05 on
// Structural16.

// benchKernel times run(cfg) after one untimed call, which builds
// whatever the first run of a configuration pays for once — the
// warm-start LLC image, pooled machines — so neither member of a pair
// is charged for it.
func benchKernel[C, R any](b *testing.B, run func(C) (R, error), cfg C) {
	b.Helper()
	if _, err := run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelEvent64Core(b *testing.B)    { benchKernel(b, Run, pod64Mesh) }
func BenchmarkKernelLockstep64Core(b *testing.B) { benchKernel(b, runLockstep, pod64Mesh) }

func BenchmarkKernelEventStructural16(b *testing.B) {
	benchKernel(b, RunStructural, structural16)
}
func BenchmarkKernelLockstepStructural16(b *testing.B) {
	benchKernel(b, runStructuralLockstep, structural16)
}
