package engine

import (
	"context"
	"sync/atomic"
	"time"
)

// Decision is one observable engine choice: how a memoized point was
// resolved (or evicted), where, and at what cost. The engine emits a
// Decision to the installed hook (SetDecisionHook) at each terminal
// event; the observability layer (internal/exp.ObserveDecisions)
// converts them into trace records and histogram observations. Points
// with an empty key — unmemoized analytic work — are not recorded.
type Decision struct {
	// Key is the raw memo key of the point the decision is about.
	Key string
	// Source tells what resolved the point: "memo" (served from the
	// memo, including waits on an in-flight duplicate), "store"
	// (persistent tier hit), "remote" (computed by the installed
	// Route), "simulated" (computed on the local pool), or "evicted"
	// (the entry was discarded under capacity pressure — not a
	// resolution, but a choice that makes a later recomputation).
	Source string
	// Replica, Rank and Retries describe a "remote" resolution, filled
	// by the router through the RouteInfo it finds on the request
	// context: the replica address that answered, its position in the
	// key's rendezvous order (0 = home), and same-replica retransmits.
	Replica string
	Rank    int
	Retries int
	// QueueWait is time spent waiting for a local worker slot
	// ("simulated" only).
	QueueWait time.Duration
	// Latency is the total time from the point's claim (Claim, or the
	// DoRouted call) to its resolution.
	Latency time.Duration
	// Err marks a resolution that returned a genuine (non-cancellation)
	// error.
	Err bool
}

// DecisionHook receives engine decisions. A hook must be fast and
// non-blocking — it is called synchronously on the request path, and
// for "evicted" records while the engine's internal lock is held — and
// must never call back into the engine.
type DecisionHook func(Decision)

// SetDecisionHook installs fn as the engine's decision observer; a nil
// fn removes it and returns the engine to its unobserved fast path
// (with no hook installed the engine takes no timestamps). Install the
// hook before the engine starts serving work.
func (e *Engine) SetDecisionHook(fn DecisionHook) {
	if fn == nil {
		e.decision.Store(nil)
		return
	}
	e.decision.Store(&fn)
}

// RouteInfo is the per-request slot a Route implementation fills in to
// attribute a "remote" decision: which replica answered, at which
// rendezvous rank, after how many same-replica retries. The engine
// attaches an empty RouteInfo to the context it passes the router only
// when a decision hook is installed; routers retrieve it with
// RouteInfoFrom and leave it untouched when absent.
type RouteInfo struct {
	// Replica is the address of the replica that computed the point.
	Replica string
	// Rank is Replica's position in the key's rendezvous order
	// (0 = the key's home replica; >0 means failover).
	Rank int
	// Retries counts same-replica retransmissions before success.
	Retries int
}

type routeInfoKey struct{}

// withRouteInfo attaches a fresh RouteInfo slot to ctx.
func withRouteInfo(ctx context.Context) (context.Context, *RouteInfo) {
	ri := &RouteInfo{}
	return context.WithValue(ctx, routeInfoKey{}, ri), ri
}

// RouteInfoFrom returns the RouteInfo slot the engine attached to ctx,
// or nil when the request is not being observed. A router fills the
// slot on a successful remote resolution.
func RouteInfoFrom(ctx context.Context) *RouteInfo {
	ri, _ := ctx.Value(routeInfoKey{}).(*RouteInfo)
	return ri
}

// decisionClock returns the current time only when a hook is
// installed, so the unobserved path takes no timestamps.
func decisionClock(hook *DecisionHook) time.Time {
	if hook == nil {
		return time.Time{}
	}
	return time.Now()
}

// loadDecisionHook snapshots the installed hook pointer once per call.
func (e *Engine) loadDecisionHook() *DecisionHook {
	return e.decision.Load()
}

// decisionHookPtr is the atomic slot type for the installed hook.
type decisionHookPtr = atomic.Pointer[DecisionHook]
