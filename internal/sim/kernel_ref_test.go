// The lock-step reference kernel: the seed's cycle loop, kept verbatim
// as the behavioural reference the event-scheduled kernel must match
// byte for byte (TestKernelEquivalence*) and as the baseline the
// BenchmarkKernel{Event,Lockstep} pairs measure the event kernel
// against. It polls every core every cycle, so it lives here, in test
// code, and never runs in production.
package sim

// runLockstepOn advances the machine with the seed kernel's cycle loop —
// polling every core every cycle — as the behavioural reference for the
// golden equivalence tests and the benchmark baseline.
func runLockstepOn[M coreModel](k *kernel, model M, cycles int) {
	end := k.now + int64(cycles)
	for ; k.now < end; k.now++ {
		for i := 0; i < k.cfg.Cores; i++ {
			c := k.states[i]
			if c.stallDebt >= 1 {
				c.stallDebt--
				continue
			}
			if k.now < c.blockedUntil {
				continue
			}
			model.stepActive(i)
		}
	}
}

// runLockstep is Run on the lock-step reference kernel.
func runLockstep(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	m, err := newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	runLockstepOn(&m.kernel, m, cfg.WarmupCycles)
	m.resetStats()
	runLockstepOn(&m.kernel, m, cfg.MeasureCycles)
	return m.result(), nil
}

// runStructuralLockstep is RunStructural on the lock-step reference
// kernel, on a machine drawn from and returned to the pool exactly as
// RunStructural's is.
func runStructuralLockstep(cfg StructuralConfig) (StructuralResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return StructuralResult{}, err
	}
	m, err := acquireStructMachine(cfg)
	if err != nil {
		return StructuralResult{}, err
	}
	res, err := m.simulateLockstep()
	if err != nil {
		return StructuralResult{}, err
	}
	machinePool.put(m)
	return res, nil
}

// simulateLockstep is structMachine.simulate on the lock-step
// reference kernel.
func (m *structMachine) simulateLockstep() (StructuralResult, error) {
	runLockstepOn(&m.kernel, m, m.scfg.WarmupCycles)
	m.resetStructStats()
	runLockstepOn(&m.kernel, m, m.scfg.MeasureCycles)
	if m.err != nil {
		return StructuralResult{}, m.err
	}
	return m.structResult(), nil
}
