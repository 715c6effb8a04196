// Package engine provides the worker pool and memo that back the
// experiment layer (internal/exp): a fixed-size pool that bounds
// concurrent computations, context cancellation, and a memo keyed by
// canonical configuration keys so identical points are computed exactly
// once while resident.
//
// The memo is optionally capacity-bounded (NewBounded): a long-running
// process — cmd/soprocd serving ad-hoc sweeps — caps its resident
// entries and evicts in least-recently-used order, while the one-shot
// CLIs keep the unbounded memo (New) whose behaviour is identical to a
// plain per-process cache. Eviction never weakens the single-flight
// guarantee: entries that are in flight or being waited on are pinned
// and cannot be evicted, so two concurrent requests for one key still
// share one computation.
//
// It lives below the simulator so that packages the experiment layer
// itself drives can share the pool without an import cycle —
// sim.RunSampled fans its seed samples out across the same workers that
// run figure sweeps. internal/exp re-exports the user-facing surface
// (Engine, WithEngine, ...) and layers the typed Point API on top of
// Claim and DoRouted.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is a parallel, memoizing work runner. The zero value is not
// usable; construct with New or NewBounded. An Engine is safe for
// concurrent use by any number of goroutines; its memo is shared across
// all work run on it for the life of the process.
type Engine struct {
	sem chan struct{} // one slot per worker

	// route, when set (SetRoute), is consulted once per memo miss for
	// work carrying a routable payload; see Route.
	route atomic.Pointer[Route]

	// store, when set (SetStore), is the persistent second memo tier:
	// probed on every memo miss before the work is routed or computed,
	// and written through on every successful computation; see Store.
	store atomic.Pointer[Store]

	// decision, when set (SetDecisionHook), observes every memoized
	// point's resolution and every eviction; see Decision. With no hook
	// installed the hot path takes no timestamps.
	decision decisionHookPtr

	mu       sync.Mutex
	memo     map[string]*memoEntry
	capacity int // max resident memo entries; 0 = unbounded
	// Intrusive LRU list over the evictable entries: complete and
	// currently unreferenced. lruHead is the most recently used,
	// lruTail the eviction candidate. Pinned entries (refs > 0 —
	// in flight, or being waited on) are never on this list.
	lruHead, lruTail *memoEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	remote    atomic.Int64 // work resolved by the installed Route
	storeHits atomic.Int64 // memo misses answered by the installed Store
	inflight  atomic.Int64 // computations currently executing
}

// Route resolves one memo miss somewhere other than the local worker
// pool — in practice, on a cluster replica (internal/cluster). It
// receives the memo key and the payload the caller attached to the work
// (DoRouted builds it only for the router); a typical router serializes
// the payload, ships it to the replica that owns the key, and returns
// the computed value. Returning handled=false declines the work —
// because the payload is not representable on the wire, or every
// replica is down — and the engine computes it locally instead, so a
// router can never change results, only where they are computed.
// Returning handled=true with a cancellation error withdraws the memo
// entry exactly as a cancelled local computation would, so a later call
// retries for real.
//
// A Route runs under the key's single-flight memo entry but does NOT
// hold a worker slot: remote work waits on the network, not on local
// CPU, so routed keys do not starve the local pool.
type Route func(ctx context.Context, key string, payload any) (val any, handled bool, err error)

// SetRoute installs r as the engine's router, consulted on every memo
// miss whose work carries a non-nil payload (DoRouted) unless routing
// is disabled on the request context (DisableRouting). Install the
// router before the engine starts serving work; a nil r removes it.
func (e *Engine) SetRoute(r Route) {
	if r == nil {
		e.route.Store(nil)
		return
	}
	e.route.Store(&r)
}

type noRouteKey struct{}

// DisableRouting returns a context whose work is always computed
// locally, even on an engine with a router installed. The serve layer
// applies it to requests already forwarded by a coordinator, so a
// misconfigured peer cycle (A routes to B, B routes to A) degenerates to
// one forwarding hop instead of an infinite loop.
func DisableRouting(ctx context.Context) context.Context {
	return context.WithValue(ctx, noRouteKey{}, true)
}

// routingDisabled reports whether DisableRouting marked ctx.
func routingDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(noRouteKey{}).(bool)
	return on
}

// RoutingDisabled reports whether DisableRouting marked ctx. The tiered
// evaluator (internal/tier) uses it together with HasRoute to decide
// whether escalated points should go through the routable per-point
// path (so a cluster coordinator can ship them to replicas) or the
// local shape-batched path.
func RoutingDisabled(ctx context.Context) bool { return routingDisabled(ctx) }

// HasRoute reports whether a router is installed (SetRoute).
func (e *Engine) HasRoute() bool { return e.route.Load() != nil }

// Store is the engine's optional persistent second memo tier
// (internal/store implements it over an append-only log). Load returns
// the stored value for a memo key; Save records a freshly computed
// (key, value) pair and may decline values it cannot represent. Both
// must be safe for concurrent use.
//
// With a store installed (SetStore) the memo hierarchy becomes
// memory → disk → compute: a memo miss probes Load before the work is
// routed or computed — a hit completes the key's single-flight entry
// without holding a worker slot and counts as a store hit, never a miss,
// so "points simulated" stays truthful — and every successful
// computation (local, routed, or seeded) is written through with Save.
// Like a Route, a Store can never change a result, only whether it is
// recomputed.
type Store interface {
	// Load returns the stored value for key, if present.
	Load(key string) (val any, ok bool)
	// Save records a computed value under key. Implementations must
	// tolerate values of any type, ignoring those they cannot persist.
	Save(key string, val any)
}

// SetStore installs s as the engine's persistent result tier, probed on
// every memo miss and written through on every successful computation.
// Install it before the engine starts serving work; a nil s removes it.
func (e *Engine) SetStore(s Store) {
	if s == nil {
		e.store.Store(nil)
		return
	}
	e.store.Store(&s)
}

// HasStore reports whether a persistent result tier is installed
// (SetStore).
func (e *Engine) HasStore() bool { return e.store.Load() != nil }

// storeLoad probes the installed store for key; ok is false without a
// store. A hit counts toward Stats.StoreHits.
func (e *Engine) storeLoad(key string) (any, bool) {
	sp := e.store.Load()
	if sp == nil {
		return nil, false
	}
	val, ok := (*sp).Load(key)
	if ok {
		e.storeHits.Add(1)
	}
	return val, ok
}

// storeSave writes a successful computation through to the installed
// store, if any.
func (e *Engine) storeSave(key string, val any) {
	if sp := e.store.Load(); sp != nil {
		(*sp).Save(key, val)
	}
}

// memoEntry is the memo slot for one key. done is closed once val/err
// are final, so concurrent requests for an in-flight key wait instead of
// recomputing. refs (guarded by Engine.mu) counts the owner computing
// the entry plus every waiter; while refs > 0 the entry is pinned —
// off the LRU list and ineligible for eviction.
type memoEntry struct {
	key  string
	done chan struct{}
	val  any
	err  error

	refs       int
	prev, next *memoEntry
	inLRU      bool
}

// New returns an engine with the given worker-pool size and an
// unbounded memo; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine { return NewBounded(workers, 0) }

// NewBounded returns an engine whose memo holds at most capacity
// resident entries, evicting the least recently used complete entry
// when a new key would exceed it; capacity <= 0 means unbounded.
// Entries that are in flight or being waited on are pinned and never
// evicted, so the resident count can transiently exceed capacity when
// more than capacity keys are referenced at once.
func NewBounded(workers, capacity int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Engine{
		sem:      make(chan struct{}, workers),
		memo:     make(map[string]*memoEntry),
		capacity: capacity,
	}
}

// Workers reports the worker-pool size.
func (e *Engine) Workers() int { return cap(e.sem) }

// MemoCapacity reports the memo's resident-entry bound; 0 is unbounded.
func (e *Engine) MemoCapacity() int { return e.capacity }

// Stats is a snapshot of an engine's counters.
type Stats struct {
	// Hits counts work served from the memo, including waits on
	// in-flight duplicates. Misses counts work actually computed.
	Hits, Misses int64
	// Evictions counts memo entries discarded to stay within
	// MemoCapacity; an evicted key is recomputed on next request.
	Evictions int64
	// Remote counts work resolved by the installed Route (computed on a
	// cluster replica rather than the local pool). Always 0 without a
	// router.
	Remote int64
	// StoreHits counts memo misses answered by the installed Store
	// (served from disk rather than simulated). Always 0 without a
	// store.
	StoreHits int64
	// InFlight is the number of computations executing right now.
	InFlight int64
	// MemoSize is the number of resident memo entries; at most
	// MemoCapacity when bounded, except transiently while more than
	// MemoCapacity entries are pinned. MemoCapacity 0 means unbounded.
	MemoSize     int
	MemoCapacity int
}

// Stats snapshots the engine's memo and work counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	size := len(e.memo)
	e.mu.Unlock()
	return Stats{
		Hits:         e.hits.Load(),
		Misses:       e.misses.Load(),
		Evictions:    e.evictions.Load(),
		Remote:       e.remote.Load(),
		StoreHits:    e.storeHits.Load(),
		InFlight:     e.inflight.Load(),
		MemoSize:     size,
		MemoCapacity: e.capacity,
	}
}

var defaultEngine = New(0)

// Default returns the process-wide engine: GOMAXPROCS workers and an
// unbounded memo shared by everything that does not install its own
// engine.
func Default() *Engine { return defaultEngine }

type ctxKey struct{}

// WithEngine returns a context carrying e; experiment code retrieves it
// with FromContext. This is how a CLI's -parallel flag and
// serial-baseline tests select a pool size without threading an Engine
// through every call signature.
func WithEngine(ctx context.Context, e *Engine) context.Context {
	return context.WithValue(ctx, ctxKey{}, e)
}

// FromContext returns the context's engine, or Default if none is set.
func FromContext(ctx context.Context) *Engine {
	if e, ok := ctx.Value(ctxKey{}).(*Engine); ok && e != nil {
		return e
	}
	return Default()
}

// Do runs compute under a worker slot, memoized by key. Two calls with
// equal non-empty keys must describe identical computations; the engine
// computes each distinct key at most once while it stays resident and
// serves later requests from the memo (in-flight duplicates wait on the
// first computation). On a bounded engine a key evicted under capacity
// pressure is recomputed on its next request; a key is never computed
// twice concurrently. An empty key disables memoization for the call.
//
// compute must not call back into the same engine: it runs while
// holding a worker slot, so nested calls can exhaust the pool and
// deadlock. A compute that returns a cancellation error is withdrawn
// from the memo — a cancellation is not a fact about the key — so a
// later call retries it for real.
func (e *Engine) Do(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	return e.DoRouted(ctx, key, nil, compute)
}

// DoRouted is Do with a routable payload attached: on a memo miss, an
// engine with a router (SetRoute) offers (key, payload()) to the router
// before computing locally, so a cluster coordinator can ship the work
// to the replica owning the key. The payload must describe the same
// computation as compute — routing only moves where a point runs, never
// what it returns.
//
// payload is a thunk because building a payload (a point's wire form)
// costs more than serving the point from the memo or the store. It is
// called at most once, and only when the point is about to be offered
// to a router: a memo and store miss, on an engine with a router,
// outside a DisableRouting context. A nil thunk or a nil payload, an
// engine without a router, or a context marked by DisableRouting always
// computes locally; so does any point the router declines.
// Memoization, single-flight dedup, and cancellation withdrawal are
// identical to Do in every case.
//
// A keyed DoRouted is Claim followed, when the claim leaves a Flight,
// by Flight.Resolve.
func (e *Engine) DoRouted(ctx context.Context, key string, payload func() any, compute func() (any, error)) (any, error) {
	if key == "" {
		if err := e.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.release()
		e.inflight.Add(1)
		defer e.inflight.Add(-1)
		return compute()
	}
	f, val, err := e.Claim(key)
	if f == nil {
		return val, err
	}
	return f.Resolve(ctx, payload, compute)
}

// Flight is a memoized point that Claim could not serve from the memo.
// Either its key is in flight elsewhere and the flight waits for that
// computation (Waiting), or the caller now owns the key's single-flight
// memo entry and must answer it: from the store (Load), or by routing
// or computing it (Resolve). Finish every Flight with one Resolve call,
// unless Load returned the value: an owned flight left unfinished
// blocks the key's waiters forever.
type Flight struct {
	e      *Engine
	key    string
	ent    *memoEntry
	owned  bool
	probed bool // the store has been asked for the key
	hook   *DecisionHook
	start  time.Time
}

// Claim serves a memoized point from the memo when that needs no wait,
// and otherwise returns the Flight that finishes it.
//
// A complete memo entry is a memo hit: Claim returns its value, or the
// genuine error it memoized, with a nil Flight, emits the point's
// Decision and counts it toward Stats. An entry still in flight gives a
// waiting Flight; an absent key becomes a new single-flight entry owned
// by the caller, whose Flight probes the store (Load) before routing or
// computing (Resolve).
//
// A keyed DoRouted is Claim then Resolve. A batch (internal/exp.Points)
// claims its keyed points on the calling goroutine, spreads the store
// probes of the keys it owns over at most Workers() goroutines, and
// starts a goroutine only for a flight that must route or compute. key
// must be non-empty.
func (e *Engine) Claim(key string) (*Flight, any, error) {
	hook := e.loadDecisionHook()
	return e.claim(key, hook, decisionClock(hook))
}

// claim is Claim with the decision hook and start time fixed, so a
// flight that claims its key again after an owner's cancellation keeps
// its latency origin.
func (e *Engine) claim(key string, hook *DecisionHook, start time.Time) (*Flight, any, error) {
	e.mu.Lock()
	if ent, ok := e.memo[key]; ok {
		select {
		case <-ent.done:
			// A resident complete entry never holds a cancellation:
			// finish withdraws those before closing done.
			e.touchLocked(ent)
			e.mu.Unlock()
			val, err := e.memoHit(ent, hook, start)
			return nil, val, err
		default:
		}
		// Pin while waiting so capacity pressure from other keys cannot
		// evict an entry someone is relying on.
		e.pinLocked(ent)
		e.mu.Unlock()
		return &Flight{e: e, key: key, ent: ent, hook: hook, start: start}, nil, nil
	}
	ent := &memoEntry{key: key, done: make(chan struct{}), refs: 1}
	e.memo[key] = ent
	// The insert may push the memo over capacity; evict the
	// least recently used unpinned entry (never this one — it is
	// pinned by its owner ref until the computation finishes).
	e.trimLocked()
	e.mu.Unlock()
	return &Flight{e: e, key: key, ent: ent, owned: true, hook: hook, start: start}, nil, nil
}

// memoHit serves a complete entry as a memo hit, counted and recorded:
// its value, or the genuine error it memoized.
func (e *Engine) memoHit(ent *memoEntry, hook *DecisionHook, start time.Time) (any, error) {
	e.hits.Add(1)
	if hook != nil {
		(*hook)(Decision{Key: ent.key, Source: "memo", Latency: time.Since(start), Err: ent.err != nil})
	}
	if ent.err != nil {
		return nil, ent.err
	}
	return ent.val, nil
}

// Waiting reports whether the flight waits on a computation of its key
// already in flight elsewhere, rather than owning the key.
func (f *Flight) Waiting() bool { return !f.owned }

// Load probes the persistent store for an owned flight's key, once. A
// disk hit completes the flight without a worker slot or a network
// round-trip: the value is memoized, counted as a store hit rather than
// a miss (the point was never simulated), recorded as a "store"
// Decision, and returned with ok true; the flight then needs no
// Resolve. A waiting flight, an engine without a store, a key the store
// lacks, or a second call reports ok false, and Resolve finishes the
// flight without probing again. Load is safe to call on a goroutine
// other than the one that claimed the flight, but never concurrently
// with the flight's other methods.
func (f *Flight) Load() (val any, ok bool) {
	if !f.owned || f.probed {
		return nil, false
	}
	f.probed = true
	val, ok = f.e.storeLoad(f.key)
	if !ok {
		return nil, false
	}
	if f.hook != nil {
		(*f.hook)(Decision{Key: f.key, Source: "store", Latency: time.Since(f.start)})
	}
	val, _ = f.e.finish(f.ent, f.key, val, nil)
	return val, true
}

// Resolve finishes the flight and returns the point's value. A waiting
// flight blocks until the in-flight computation completes and serves
// its result as a memo hit; if that computation was cancelled before
// it could compute, Resolve claims the key again under ctx rather than
// inheriting the cancellation. An owned flight probes the store unless
// Load already has, then is offered to the router and otherwise
// computed under a worker slot, memoized, and written through to the
// store, with DoRouted's rules for payloads, declines and cancellation
// withdrawal.
func (f *Flight) Resolve(ctx context.Context, payload func() any, compute func() (any, error)) (any, error) {
	e := f.e
	for !f.owned {
		select {
		case <-f.ent.done:
			e.unpin(f.ent)
			if !IsCancellation(f.ent.err) {
				return e.memoHit(f.ent, f.hook, f.start)
			}
			// The owner was cancelled before it could compute and
			// withdrew the entry; retry under our own context rather
			// than inheriting its cancellation.
			next, val, err := e.claim(f.key, f.hook, f.start)
			if next == nil {
				return val, err
			}
			f = next
		case <-ctx.Done():
			e.unpin(f.ent)
			return nil, ctx.Err()
		}
	}
	if val, ok := f.Load(); ok {
		return val, nil
	}
	return e.run(ctx, f, payload, compute)
}

// run routes or computes an owned flight's point and publishes the
// result to its memo entry.
func (e *Engine) run(ctx context.Context, f *Flight, payload func() any, compute func() (any, error)) (any, error) {
	key, ent, hook, start := f.key, f.ent, f.hook, f.start

	// Offer the work to the router next: routed work waits on a
	// replica, not a local worker slot, so it skips acquire entirely.
	// The entry is already owned, so concurrent requests for the key
	// wait on this one routed flight.
	if rp := e.route.Load(); rp != nil && payload != nil && !routingDisabled(ctx) {
		if p := payload(); p != nil {
			// Only observed requests pay for the RouteInfo allocation;
			// the router finds the slot with RouteInfoFrom and fills in
			// where the point actually ran.
			rctx := ctx
			var ri *RouteInfo
			if hook != nil {
				rctx, ri = withRouteInfo(ctx)
			}
			if val, handled, rerr := (*rp)(rctx, key, p); handled {
				if rerr == nil {
					e.remote.Add(1)
					e.storeSave(key, val)
				}
				if hook != nil && !IsCancellation(rerr) {
					d := Decision{Key: key, Source: "remote", Latency: time.Since(start), Err: rerr != nil}
					d.Replica, d.Rank, d.Retries = ri.Replica, ri.Rank, ri.Retries
					(*hook)(d)
				}
				return e.finish(ent, key, val, rerr)
			}
		}
	}

	acquireStart := decisionClock(hook)
	if err := e.acquire(ctx); err != nil {
		// Never computed: withdraw the entry so a later call can retry,
		// and release current waiters with the cancellation.
		e.mu.Lock()
		if e.memo[key] == ent {
			delete(e.memo, key)
		}
		ent.refs-- // owner ref; withdrawn, so never enters the LRU
		e.mu.Unlock()
		ent.err = err
		close(ent.done)
		return nil, err
	}
	var queueWait time.Duration
	if hook != nil {
		queueWait = time.Since(acquireStart)
	}
	e.misses.Add(1)
	e.inflight.Add(1)
	val, cerr := compute()
	e.inflight.Add(-1)
	e.release()
	if cerr == nil {
		e.storeSave(key, val)
	}
	// A cancellation withdraws the entry rather than resolving the
	// point, so it is not a decision worth recording.
	if hook != nil && !IsCancellation(cerr) {
		(*hook)(Decision{Key: key, Source: "simulated", QueueWait: queueWait,
			Latency: time.Since(start), Err: cerr != nil})
	}
	return e.finish(ent, key, val, cerr)
}

// finish publishes the result of an owned memo entry and drops the
// owner pin (a resident complete entry joins the LRU). A cancellation
// is not a fact about the key: the entry is withdrawn — before done
// closes, so woken waiters re-find an empty slot — and a later call
// computes it for real.
func (e *Engine) finish(ent *memoEntry, key string, val any, err error) (any, error) {
	ent.val, ent.err = val, err
	if IsCancellation(err) {
		e.mu.Lock()
		if e.memo[key] == ent {
			delete(e.memo, key)
		}
		e.mu.Unlock()
	}
	close(ent.done)
	e.unpin(ent)
	if err != nil {
		return nil, err
	}
	return val, nil
}

// touchLocked marks a complete entry most recently used, as pinning and
// unpinning it around a memo hit would. Callers hold e.mu.
func (e *Engine) touchLocked(ent *memoEntry) {
	if ent.inLRU {
		e.lruRemoveLocked(ent)
		e.lruPushFrontLocked(ent)
		e.trimLocked()
	}
}

// pinLocked takes a reference on ent, removing it from the LRU list if
// it was evictable. On an unbounded engine nothing can ever be evicted,
// so the bookkeeping (and unpin's second lock acquisition after a wait)
// is skipped entirely. Callers hold e.mu.
func (e *Engine) pinLocked(ent *memoEntry) {
	if e.capacity == 0 {
		return
	}
	ent.refs++
	if ent.inLRU {
		e.lruRemoveLocked(ent)
	}
}

// unpin drops a reference on ent. The last reference moves a resident
// (non-withdrawn) entry to the front of the LRU list — by then it is
// complete, since the owner's computation holds a reference — and
// applies capacity pressure.
func (e *Engine) unpin(ent *memoEntry) {
	if e.capacity == 0 {
		return
	}
	e.mu.Lock()
	ent.refs--
	if ent.refs == 0 && e.memo[ent.key] == ent {
		e.lruPushFrontLocked(ent)
		e.trimLocked()
	}
	e.mu.Unlock()
}

// trimLocked evicts least-recently-used unpinned entries until the memo
// fits its capacity. If every resident entry is pinned the memo may
// transiently exceed capacity; the next unpin re-applies the bound.
// Callers hold e.mu.
func (e *Engine) trimLocked() {
	var hook *DecisionHook
	if e.capacity > 0 && len(e.memo) > e.capacity {
		hook = e.loadDecisionHook()
	}
	for e.capacity > 0 && len(e.memo) > e.capacity {
		victim := e.lruTail
		if victim == nil {
			return
		}
		e.lruRemoveLocked(victim)
		delete(e.memo, victim.key)
		e.evictions.Add(1)
		// The hook runs under e.mu here; the DecisionHook contract
		// (fast, non-blocking, never reenters the engine) makes that
		// safe.
		if hook != nil {
			(*hook)(Decision{Key: victim.key, Source: "evicted"})
		}
	}
}

func (e *Engine) lruPushFrontLocked(ent *memoEntry) {
	ent.inLRU = true
	ent.prev = nil
	ent.next = e.lruHead
	if e.lruHead != nil {
		e.lruHead.prev = ent
	} else {
		e.lruTail = ent
	}
	e.lruHead = ent
}

func (e *Engine) lruRemoveLocked(ent *memoEntry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		e.lruHead = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		e.lruTail = ent.prev
	}
	ent.prev, ent.next = nil, nil
	ent.inLRU = false
}

// Cached returns the memoized value for key if a computation for it has
// already completed successfully, without waiting: an in-flight key, a
// failed key, or an absent key all report ok=false. A successful lookup
// counts as a memo hit and refreshes the entry's LRU position on a
// bounded engine. Cached deliberately does not join an in-flight
// computation — callers that want single-flight semantics use Do; this
// is the peek the tiered evaluator takes before deciding to batch
// escalated points itself.
func (e *Engine) Cached(key string) (any, bool) {
	if key == "" {
		return nil, false
	}
	e.mu.Lock()
	ent, ok := e.memo[key]
	if !ok {
		e.mu.Unlock()
		// The memory tier has nothing; probe the persistent store. A
		// disk hit installs as a resident completed entry — no miss is
		// counted, the point was never simulated — so later Do calls
		// for the key are memo hits.
		val, found := e.storeLoad(key)
		if !found {
			return nil, false
		}
		e.mu.Lock()
		if _, raced := e.memo[key]; !raced {
			e.installLocked(key, val)
		}
		e.mu.Unlock()
		return val, true
	}
	select {
	case <-ent.done:
	default: // in flight: do not wait
		e.mu.Unlock()
		return nil, false
	}
	if ent.err != nil {
		e.mu.Unlock()
		return nil, false
	}
	e.touchLocked(ent)
	val := ent.val
	e.mu.Unlock()
	e.hits.Add(1)
	return val, true
}

// Seed inserts a completed (key, val) pair into the memo, as if a Do
// for key had just computed val, and reports whether the insert
// happened: a key that is already resident or in flight is left
// untouched (the existing computation wins). The tiered evaluator uses
// Seed to publish results it computed through the shape-batched
// structural path, so later Do calls for the same key — from a figure
// generator or an HTTP sweep — are memo hits instead of recomputations.
// The pair must obey the same contract as Do: val must be the value the
// key's computation would produce.
func (e *Engine) Seed(key string, val any) bool {
	if key == "" {
		return false
	}
	e.mu.Lock()
	if _, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return false
	}
	// A seeded insert is a computation entering the memo, exactly like a
	// Do miss — count it as one, so "points simulated" stays truthful
	// whichever path ran the simulator.
	e.misses.Add(1)
	e.installLocked(key, val)
	e.mu.Unlock()
	e.storeSave(key, val)
	if hook := e.loadDecisionHook(); hook != nil {
		(*hook)(Decision{Key: key, Source: "seeded"})
	}
	return true
}

// installLocked inserts a completed memo entry for key without touching
// the miss counter — the shared tail of Seed (which counts its insert as
// a miss, since the caller ran the simulator) and the disk-hit paths
// (which must not: a stored result was computed in an earlier life).
// The caller holds e.mu and has verified key is absent.
func (e *Engine) installLocked(key string, val any) {
	closed := make(chan struct{})
	close(closed)
	ent := &memoEntry{key: key, done: closed, val: val}
	e.memo[key] = ent
	if e.capacity > 0 {
		e.lruPushFrontLocked(ent)
		e.trimLocked()
	}
}

// IsCancellation reports whether err is a context cancellation or
// deadline rather than a genuine computation failure.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// FirstError selects a batch's reportable error: the first genuine
// failure in input order or, if every error is a cancellation, the
// first cancellation — so a deterministic config error is never masked
// by the cancellations it triggered in sibling points. A non-nil wrap
// decorates the chosen error with its index (e.g. an experiment ID).
// It returns nil if every error is nil.
func FirstError(errs []error, wrap func(int, error) error) error {
	if wrap == nil {
		wrap = func(_ int, err error) error { return err }
	}
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !IsCancellation(err) {
			return wrap(i, err)
		}
		if first == nil {
			first = wrap(i, err)
		}
	}
	return first
}

func (e *Engine) acquire(ctx context.Context) error {
	// Check cancellation first: select chooses randomly among ready
	// cases, and a cancelled batch must not start new work just because
	// a worker slot happens to be free.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }
