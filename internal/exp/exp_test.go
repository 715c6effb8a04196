package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaleout/internal/exp/engine"
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

// countingStore is an engine.Store over a fixed map that counts every
// Load per key, hit or miss.
type countingStore struct {
	mu    sync.Mutex
	vals  map[string]int
	loads map[string]int
}

func newCountingStore(keys ...string) *countingStore {
	s := &countingStore{vals: map[string]int{}, loads: map[string]int{}}
	for i, k := range keys {
		s.vals[k] = 100 + i
	}
	return s
}

func (s *countingStore) Load(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads[key]++
	v, ok := s.vals[key]
	return v, ok
}

func (s *countingStore) Save(string, any) {}

func (s *countingStore) loadsOf(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[key]
}

// sourceLog records decisions by source and by key.
type sourceLog struct {
	mu    sync.Mutex
	bySrc map[string]int
	byKey map[string][]string
	errs  int
}

func newSourceLog() *sourceLog {
	return &sourceLog{bySrc: map[string]int{}, byKey: map[string][]string{}}
}

func (l *sourceLog) hook(d engine.Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bySrc[d.Source]++
	l.byKey[d.Key] = append(l.byKey[d.Key], d.Source)
	if d.Err {
		l.errs++
	}
}

// Concurrent batches that share keys keep the engine's contract while
// memo and store hits resolve on each batch's calling goroutine: every
// key is probed in the store and resolved exactly once, the counters
// split hits from store hits, computations and routed points exactly,
// and every point yields one decision of the right source.
func TestPointsConcurrentBatchesShareKeys(t *testing.T) {
	stored := []string{"s0", "s1", "s2", "s3", "s4"}
	cases := []struct {
		name     string
		computed []string // absent from the store: computed locally
		routed   []string // absent from the store: handled by the router
	}{
		{name: "store only"},
		{name: "store and computed", computed: []string{"c0", "c1", "c2"}},
		{name: "store, computed and routed", computed: []string{"c0", "c1"}, routed: []string{"r0", "r1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 20; rep++ {
				st := newCountingStore(stored...)
				log := newSourceLog()
				var computes, routes atomic.Int64
				e := New(2)
				e.SetStore(st)
				e.SetDecisionHook(log.hook)
				e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
					routes.Add(1)
					return payload, true, nil
				})
				point := func(key string) Point[int] {
					p := Func[int]{K: key, F: func() (int, error) { computes.Add(1); return 7, nil }}
					for _, r := range tc.routed {
						if r == key {
							p.P = 9
						}
					}
					return p
				}
				keys := append(append(append([]string{}, stored...), tc.computed...), tc.routed...)
				var a, b []Point[int]
				for i := range keys {
					a = append(a, point(keys[i]))
					b = append(b, point(keys[len(keys)-1-i]))
				}
				var wg sync.WaitGroup
				for _, batch := range [][]Point[int]{a, b} {
					wg.Add(1)
					go func(batch []Point[int]) {
						defer wg.Done()
						if _, err := Points(context.Background(), e, batch); err != nil {
							t.Error(err)
						}
					}(batch)
				}
				wg.Wait()

				for _, k := range keys {
					if n := st.loadsOf(k); n != 1 {
						t.Fatalf("key %s probed in the store %d times, want 1", k, n)
					}
					if src := log.byKey[k]; len(src) != 2 {
						t.Fatalf("key %s: decisions %v, want one per point", k, src)
					}
				}
				distinct := int64(len(keys))
				s := e.Stats()
				want := Stats{Hits: distinct, Misses: int64(len(tc.computed)), StoreHits: int64(len(stored)),
					Remote: int64(len(tc.routed)), MemoSize: len(keys)}
				if s != want {
					t.Fatalf("stats %+v, want %+v", s, want)
				}
				if computes.Load() != int64(len(tc.computed)) || routes.Load() != int64(len(tc.routed)) {
					t.Fatalf("%d computations and %d routes, want %d and %d",
						computes.Load(), routes.Load(), len(tc.computed), len(tc.routed))
				}
				wantSrc := map[string]int{"memo": len(keys), "store": len(stored)}
				if n := len(tc.computed); n > 0 {
					wantSrc["simulated"] = n
				}
				if n := len(tc.routed); n > 0 {
					wantSrc["remote"] = n
				}
				if fmt.Sprint(log.bySrc) != fmt.Sprint(wantSrc) || log.errs != 0 {
					t.Fatalf("decisions by source %v (%d errors), want %v", log.bySrc, log.errs, wantSrc)
				}
			}
		})
	}
}

// A key in flight in another batch is waited on, never recomputed, and
// the waiting batch resolves its other points meanwhile: its store hit
// is served while the duplicate is still computing.
func TestPointsWaitOnInflightKey(t *testing.T) {
	st := newCountingStore("s")
	log := newSourceLog()
	e := New(2)
	e.SetStore(st)
	e.SetDecisionHook(log.hook)
	var computes atomic.Int64
	started, gate := make(chan struct{}), make(chan struct{})
	slow := Func[int]{K: "k", F: func() (int, error) {
		computes.Add(1)
		close(started)
		<-gate
		return 7, nil
	}}
	owner := make(chan error, 1)
	go func() {
		_, err := Points(context.Background(), e, []Point[int]{slow})
		owner <- err
	}()
	<-started
	type res struct {
		out []int
		err error
	}
	waiter := make(chan res, 1)
	go func() {
		out, err := Points(context.Background(), e, []Point[int]{slow, Func[int]{K: "s"}})
		waiter <- res{out, err}
	}()
	for st.loadsOf("s") == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-waiter:
		t.Fatalf("waiting batch returned %v, %v while its duplicate was still computing", r.out, r.err)
	default:
	}
	close(gate)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	r := <-waiter
	if r.err != nil || r.out[0] != 7 || r.out[1] != 100 {
		t.Fatalf("waiting batch = %v, %v", r.out, r.err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("in-flight key computed %d times, want 1", n)
	}
	if got := fmt.Sprint(log.byKey["k"], log.byKey["s"]); got != "[simulated memo] [store]" {
		t.Fatalf("decisions %s", got)
	}
}

// A genuine error memoized by an earlier batch is served as a memo hit
// and still aborts the batch: the points after it never compute.
func TestPointsMemoizedErrorCancelsBatch(t *testing.T) {
	log := newSourceLog()
	e := New(1)
	e.SetDecisionHook(log.hook)
	boom := errors.New("boom")
	failing := Func[int]{K: "bad", F: func() (int, error) { return 0, boom }}
	if _, err := Points(context.Background(), e, []Point[int]{failing}); !errors.Is(err, boom) {
		t.Fatalf("first batch err = %v, want boom", err)
	}
	var computes atomic.Int64
	batch := []Point[int]{failing}
	for i := 0; i < 8; i++ {
		batch = append(batch,
			Func[int]{K: fmt.Sprintf("after%d", i), F: func() (int, error) { computes.Add(1); return i, nil }},
			Func[int]{F: func() (int, error) { computes.Add(1); return i, nil }})
	}
	if _, err := Points(context.Background(), e, batch); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the memoized boom", err)
	}
	if n := computes.Load(); n != 0 {
		t.Fatalf("%d points computed after the memoized error, want 0", n)
	}
	if got := log.byKey["bad"]; fmt.Sprint(got) != "[simulated memo]" || log.errs != 2 {
		t.Fatalf("decisions for the failing key %v (%d with Err), want [simulated memo] (2)", got, log.errs)
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want one hit and one miss", s)
	}
}

// Unkeyed points run on at most Workers() goroutines, the caller among
// them, however many items the batch holds.
func TestMapGoroutinesBounded(t *testing.T) {
	const workers, items = 3, 64
	e := New(workers)
	var running atomic.Int64
	started, gate := make(chan struct{}, items), make(chan struct{})
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), e, make([]int, items), func(int) (int, error) {
			running.Add(1)
			started <- struct{}{}
			<-gate
			return 0, nil
		})
		done <- err
	}()
	for i := 0; i < workers; i++ {
		<-started
	}
	// The batch's goroutine plus its helpers: the pool's size in all.
	if extra := runtime.NumGoroutine() - before; extra > workers {
		t.Errorf("%d goroutines for %d unkeyed items on %d workers", extra, items, workers)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := running.Load(); n != items {
		t.Fatalf("%d items ran, want %d", n, items)
	}
}

// gatedStore is a countingStore whose first probes block until need of
// them run at once, or until one has waited five seconds, recording the
// most that ever ran together.
type gatedStore struct {
	*countingStore
	need int
	once sync.Once
	full chan struct{}

	mu           sync.Mutex
	active, most int
}

func (s *gatedStore) Load(key string) (any, bool) {
	s.mu.Lock()
	s.active++
	s.most = max(s.most, s.active)
	if s.active == s.need {
		s.once.Do(func() { close(s.full) })
	}
	s.mu.Unlock()
	select {
	case <-s.full:
	case <-time.After(5 * time.Second):
		s.once.Do(func() { close(s.full) }) // serial probes: wait once, not per key
	}
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	return s.countingStore.Load(key)
}

// A batch's store probes run on Workers() goroutines at once, the
// caller among them, so a large warm batch decodes its stored results
// in parallel with at most Workers()-1 goroutines started; memo hits
// resolve on the calling goroutine and start none, however many.
func TestPointsHitGoroutines(t *testing.T) {
	const workers, n = 4, 256
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%d", i)
	}
	st := &gatedStore{countingStore: newCountingStore(keys...), need: workers, full: make(chan struct{})}
	e := New(workers)
	e.SetStore(st)
	var most atomic.Int64
	e.SetDecisionHook(func(engine.Decision) {
		if g := int64(runtime.NumGoroutine()); g > most.Load() {
			most.Store(g)
		}
	})
	pts := make([]Point[int], n)
	for i, k := range keys {
		pts[i] = Func[int]{K: k}
	}
	for _, source := range []string{"store", "memo"} {
		before := int64(runtime.NumGoroutine())
		most.Store(0)
		out, err := Points(context.Background(), e, pts)
		if err != nil || out[0] != 100 || out[n-1] != 100+n-1 {
			t.Fatalf("%s hits: Points = %v...%v, %v", source, out[:1], out[n-1:], err)
		}
		extra, limit := most.Load()-before, int64(0)
		if source == "store" {
			limit = workers - 1
		}
		if extra > limit {
			t.Errorf("%d goroutines started for a batch of %d %s hits, want at most %d", extra, n, source, limit)
		}
	}
	if st.most != workers {
		t.Errorf("at most %d store probes ran at once, want %d", st.most, workers)
	}
	if s := e.Stats(); s.StoreHits != n || s.Hits != n || s.Misses != 0 {
		t.Fatalf("stats %+v", s)
	}
}
