package sim

import (
	"context"
	"sync"

	"scaleout/internal/exp/engine"
)

// RunStructuralBatch simulates a batch of structural configurations,
// amortizing machine setup across points of the same allocation
// geometry: the batch is grouped by machineShape, and each group runs
// on one machine acquired once and reset in place between points, so a
// shape-homogeneous sweep pays pool traffic (and, worst case,
// construction) once per group instead of once per point. This also
// sidesteps the pool's global retention bound: a shape-diverse sweep
// that would thrash the 2×GOMAXPROCS-machine pool holds each group's
// machine for the group's whole lifetime.
//
// Results are byte-identical to calling RunStructural per
// configuration, in input order (reset restores cold state exactly; the
// batched-vs-individual golden test asserts it). The first error aborts
// the batch.
func RunStructuralBatch(cfgs []StructuralConfig) ([]StructuralResult, error) {
	return RunStructuralBatchContext(context.Background(), cfgs)
}

// RunStructuralBatchContext is RunStructuralBatch on the context's
// experiment engine: shape groups fan out across the engine's worker
// pool (large groups are chunked so one hot shape cannot serialize the
// batch), and cancellation aborts between points.
//
// Do not call it from inside a computation already running on the same
// engine: each group chunk holds a worker slot for its duration, so
// nested calls can exhaust the pool and deadlock (see Engine.Do).
func RunStructuralBatchContext(ctx context.Context, cfgs []StructuralConfig) ([]StructuralResult, error) {
	out := make([]StructuralResult, len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	canon := make([]StructuralConfig, len(cfgs))
	groups := make(map[machineShape][]int)
	var order []machineShape // deterministic group launch order
	for i, c := range cfgs {
		cc, err := c.Canonical()
		if err != nil {
			return nil, err
		}
		canon[i] = cc
		sh := shapeOf(cc)
		if _, ok := groups[sh]; !ok {
			order = append(order, sh)
		}
		groups[sh] = append(groups[sh], i)
	}

	e := engine.FromContext(ctx)

	// Chunk each shape group so a single dominant shape still spreads
	// across the pool; every chunk keeps the one-machine amortization
	// for its own points.
	type chunk struct{ idxs []int }
	var chunks []chunk
	for _, sh := range order {
		idxs := groups[sh]
		per := (len(idxs) + e.Workers() - 1) / e.Workers()
		if per < 1 {
			per = 1
		}
		for start := 0; start < len(idxs); start += per {
			end := min(start+per, len(idxs))
			chunks = append(chunks, chunk{idxs: idxs[start:end]})
		}
	}

	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for ci, ch := range chunks {
		wg.Add(1)
		go func(ci int, idxs []int) {
			defer wg.Done()
			_, errs[ci] = e.Do(ctx, "", func() (any, error) {
				return nil, runStructChunk(ctx, canon, idxs, out)
			})
		}(ci, ch.idxs)
	}
	wg.Wait()
	if err := engine.FirstError(errs, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// runStructChunk runs one same-shape slice of the batch on a single
// machine, resetting it in place between points.
func runStructChunk(ctx context.Context, canon []StructuralConfig, idxs []int, out []StructuralResult) error {
	var m *structMachine
	defer func() {
		if m != nil {
			machinePool.put(m)
		}
	}()
	for _, i := range idxs {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := canon[i]
		var err error
		if m == nil {
			m, err = acquireStructMachine(cfg)
		} else {
			err = m.reset(cfg)
		}
		if err != nil {
			return err
		}
		if out[i], err = m.simulate(); err != nil {
			// A poisoned machine is dropped, not pooled or reused.
			m = nil
			return err
		}
	}
	return nil
}
