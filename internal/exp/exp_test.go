package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func countingPoint(counter *atomic.Int64, key string, v int) Point[int] {
	return Func[int]{K: key, F: func() (int, error) {
		counter.Add(1)
		return v, nil
	}}
}

// Identical keys must be computed exactly once, across batches and
// across concurrent duplicates within a batch.
func TestMemoDeduplicates(t *testing.T) {
	e := New(4)
	var computed atomic.Int64
	pts := make([]Point[int], 16)
	for i := range pts {
		pts[i] = countingPoint(&computed, "dup", 42)
	}
	out, err := Points(context.Background(), e, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 42 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// A second batch with the same key is served entirely from memo.
	if _, err := Points(context.Background(), e, pts[:4]); err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 19 {
		t.Fatalf("stats: %d hits, %d misses; want 19/1", st.Hits, st.Misses)
	}
}

// Distinct keys all compute; results come back in input order.
func TestInputOrder(t *testing.T) {
	e := New(3)
	var computed atomic.Int64
	pts := make([]Point[int], 32)
	for i := range pts {
		pts[i] = countingPoint(&computed, fmt.Sprintf("k%d", i), i*i)
	}
	out, err := Points(context.Background(), e, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if computed.Load() != 32 {
		t.Fatalf("computed %d, want 32", computed.Load())
	}
}

// Unkeyed points are never memoized.
func TestEmptyKeySkipsMemo(t *testing.T) {
	e := New(2)
	var computed atomic.Int64
	pts := []Point[int]{
		countingPoint(&computed, "", 1),
		countingPoint(&computed, "", 1),
	}
	if _, err := Points(context.Background(), e, pts); err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 2 {
		t.Fatalf("unkeyed points computed %d times, want 2", computed.Load())
	}
}

// Two sim.Configs that differ only in defaulted fields share one
// canonical key — the cross-figure dedup the engine relies on.
func TestSimPointCanonicalKey(t *testing.T) {
	w := workload.Suite()[0]
	implicit := sim.Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	explicit := sim.Config{
		Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
		Net: noc.New(noc.Crossbar, 16), MemChannels: 2,
		WarmupCycles: 20000, MeasureCycles: 50000, Seed: 1,
	}
	ki, ke := SimPoint{implicit}.Key(), SimPoint{explicit}.Key()
	if ki != ke {
		t.Fatalf("canonical keys differ:\n%s\n%s", ki, ke)
	}
	other := explicit
	other.Seed = 2
	if (SimPoint{other}).Key() == ke {
		t.Fatal("distinct seeds share a key")
	}
}

// The engine memoizes simulator runs: the same batch twice costs one
// round of simulation, and results are identical.
func TestSimsMemoized(t *testing.T) {
	e := New(2)
	w := workload.Suite()[0]
	cfgs := []sim.Config{
		{Workload: w, CoreType: tech.OoO, Cores: 2, LLCMB: 1},
		{Workload: w, CoreType: tech.InOrder, Cores: 2, LLCMB: 1},
	}
	first, err := Sims(WithEngine(context.Background(), e), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Sims(WithEngine(context.Background(), e), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("memoized result %d differs", i)
		}
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("%d simulations ran, want 2", st.Misses)
	}
}

// A failing point aborts the batch with its error, not a cancellation.
func TestErrorPropagation(t *testing.T) {
	e := New(2)
	boom := errors.New("boom")
	pts := []Point[int]{
		Func[int]{F: func() (int, error) { return 1, nil }},
		Func[int]{F: func() (int, error) { return 0, boom }},
	}
	if _, err := Points(context.Background(), e, pts); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Invalid sim configs surface their validation error.
	if _, err := Sims(WithEngine(context.Background(), e), []sim.Config{{}}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// A cancelled context aborts promptly with the context error.
func TestCancellation(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := make([]Point[int], 8)
	for i := range pts {
		pts[i] = Func[int]{K: fmt.Sprintf("c%d", i), F: func() (int, error) { return 0, nil }}
	}
	if _, err := Points(ctx, e, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The withdrawn keys must be retryable on a live context.
	if _, err := Points(context.Background(), e, pts); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// A keyed point whose Compute itself returns a cancellation error must
// not poison the memo: the entry is withdrawn so a later batch
// recomputes instead of livelocking on the retry path or inheriting
// the stale cancellation.
func TestComputeCancellationNotMemoized(t *testing.T) {
	e := New(2)
	var computed atomic.Int64
	pt := Func[int]{K: "ctxerr", F: func() (int, error) {
		computed.Add(1)
		return 0, context.DeadlineExceeded
	}}
	if _, err := Points(context.Background(), e, []Point[int]{pt}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if _, err := Points(context.Background(), e, []Point[int]{pt}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retry err = %v, want deadline exceeded", err)
	}
	if computed.Load() != 2 {
		t.Fatalf("computed %d times, want a fresh computation per batch", computed.Load())
	}
}

// A batch whose context stays live must not inherit a cancellation from
// another batch that owned the same memo key: when the owner is
// cancelled before computing, waiters retry under their own context.
func TestWaiterSurvivesOwnerCancellation(t *testing.T) {
	e := New(1)
	var computed atomic.Int64
	gate := make(chan struct{})

	// Occupy the engine's only worker slot so the owner below can be
	// cancelled while still waiting for a slot.
	blockerDone := make(chan error, 1)
	go func() {
		_, err := Points(context.Background(), e, []Point[int]{
			Func[int]{F: func() (int, error) { <-gate; return 0, nil }},
		})
		blockerDone <- err
	}()
	time.Sleep(20 * time.Millisecond)

	// The owner claims the memo entry for "k", then is cancelled.
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := Points(ownerCtx, e, []Point[int]{countingPoint(&computed, "k", 7)})
		ownerDone <- err
	}()
	time.Sleep(20 * time.Millisecond)

	// A waiter from an independent, live batch requests the same key.
	type res struct {
		out []int
		err error
	}
	waiterDone := make(chan res, 1)
	go func() {
		out, err := Points(context.Background(), e, []Point[int]{countingPoint(&computed, "k", 7)})
		waiterDone <- res{out, err}
	}()
	time.Sleep(20 * time.Millisecond)

	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	close(gate) // free the worker slot
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	r := <-waiterDone
	if r.err != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", r.err)
	}
	if r.out[0] != 7 || computed.Load() != 1 {
		t.Fatalf("waiter got %v after %d computations", r.out, computed.Load())
	}
}

// Map preserves input order and fans out through the same pool.
func TestMap(t *testing.T) {
	e := New(4)
	items := []int{5, 3, 8, 1}
	out, err := Map(context.Background(), e, items, func(x int) (int, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range items {
		if out[i] != x*2 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

// payloadPoint is a routable point that counts its payload builds.
type payloadPoint struct {
	builds *atomic.Int64
}

func (p payloadPoint) Key() string           { return "payload-point" }
func (p payloadPoint) Compute() (int, error) { return 1, nil }
func (p payloadPoint) RoutePayload() any     { p.builds.Add(1); return "payload" }

// A point's route payload is built only when the engine routes it: never
// on an engine without a router, never on a memo hit.
func TestRoutePayloadLazy(t *testing.T) {
	var builds atomic.Int64
	pts := []Point[int]{payloadPoint{&builds}}
	if _, err := Points(context.Background(), New(1), pts); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("payload built %d times without a router, want 0", n)
	}
	e := New(1)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) { return 2, true, nil })
	for i := 0; i < 2; i++ {
		if out, err := Points(context.Background(), e, pts); err != nil || out[0] != 2 {
			t.Fatalf("routed Points = %v, %v", out, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("payload built %d times for one routed miss and one memo hit, want 1", n)
	}
}

func TestEngineDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("zero-worker engine")
	}
	if New(7).Workers() != 7 {
		t.Fatal("worker count not respected")
	}
	if FromContext(context.Background()) != Default() {
		t.Fatal("bare context does not yield the default engine")
	}
	e := New(2)
	if FromContext(WithEngine(context.Background(), e)) != e {
		t.Fatal("context engine not retrieved")
	}
}
