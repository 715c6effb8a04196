package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// decisionRecorder collects hook emissions; safe for the concurrent
// paths the engine calls it from.
type decisionRecorder struct {
	mu   sync.Mutex
	recs []Decision
}

func (r *decisionRecorder) hook(d Decision) {
	r.mu.Lock()
	r.recs = append(r.recs, d)
	r.mu.Unlock()
}

func (r *decisionRecorder) bySource(source string) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Decision
	for _, d := range r.recs {
		if d.Source == source {
			out = append(out, d)
		}
	}
	return out
}

// TestDecisionHookSources drives every decision source through one
// engine and checks each is recorded with its key and cost fields.
func TestDecisionHookSources(t *testing.T) {
	rec := &decisionRecorder{}
	e := NewBounded(2, 2)
	e.SetDecisionHook(rec.hook)
	ctx := context.Background()

	compute := func() (any, error) { time.Sleep(time.Millisecond); return "v", nil }
	if _, err := e.Do(ctx, "k1", compute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(ctx, "k1", compute); err != nil { // memo hit
		t.Fatal(err)
	}
	e.SetStore(hitStore{key: "k2"})
	if _, err := e.Do(ctx, "k2", compute); err != nil { // store hit
		t.Fatal(err)
	}
	// Third key on a capacity-2 memo evicts the LRU entry.
	if _, err := e.Do(ctx, "k3", compute); err != nil {
		t.Fatal(err)
	}

	sim := rec.bySource("simulated")
	if len(sim) != 2 || sim[0].Key != "k1" || sim[0].Latency <= 0 || sim[0].Err {
		t.Errorf("simulated decisions = %+v", sim)
	}
	if hits := rec.bySource("memo"); len(hits) != 1 || hits[0].Key != "k1" {
		t.Errorf("memo decisions = %+v", hits)
	}
	if stored := rec.bySource("store"); len(stored) != 1 || stored[0].Key != "k2" {
		t.Errorf("store decisions = %+v", stored)
	}
	if ev := rec.bySource("evicted"); len(ev) != 1 {
		t.Errorf("evicted decisions = %+v", ev)
	}
}

// TestDecisionHookRemote verifies a router fills the RouteInfo slot
// the engine attaches and the decision carries it.
func TestDecisionHookRemote(t *testing.T) {
	rec := &decisionRecorder{}
	e := New(1)
	e.SetDecisionHook(rec.hook)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		if ri := RouteInfoFrom(ctx); ri != nil {
			ri.Replica, ri.Rank, ri.Retries = "replica-7:8080", 1, 2
		}
		return "remote-val", true, nil
	})
	val, err := e.DoRouted(context.Background(), "rk", thunk("payload"), func() (any, error) {
		t.Error("routed point must not compute locally")
		return nil, nil
	})
	if err != nil || val != "remote-val" {
		t.Fatalf("DoRouted = %v, %v", val, err)
	}
	remote := rec.bySource("remote")
	if len(remote) != 1 {
		t.Fatalf("remote decisions = %+v", remote)
	}
	d := remote[0]
	if d.Replica != "replica-7:8080" || d.Rank != 1 || d.Retries != 2 || d.Key != "rk" {
		t.Errorf("remote decision = %+v", d)
	}
}

// TestDecisionHookErrTagged checks a failing compute is recorded with
// Err set, and a cancellation is not recorded at all.
func TestDecisionHookErrTagged(t *testing.T) {
	rec := &decisionRecorder{}
	e := New(1)
	e.SetDecisionHook(rec.hook)
	boom := errors.New("boom")
	if _, err := e.Do(context.Background(), "bad", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if sim := rec.bySource("simulated"); len(sim) != 1 || !sim[0].Err {
		t.Errorf("failed compute decisions = %+v", sim)
	}
	if _, err := e.Do(context.Background(), "cancelled", func() (any, error) {
		return nil, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for _, d := range rec.bySource("simulated") {
		if d.Key == "cancelled" {
			t.Errorf("cancellation was recorded as a decision: %+v", d)
		}
	}
}

// TestNoHookNoRouteInfo pins the unobserved fast path: without a hook
// the router sees no RouteInfo slot.
func TestNoHookNoRouteInfo(t *testing.T) {
	e := New(1)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		if RouteInfoFrom(ctx) != nil {
			t.Error("RouteInfo attached without a decision hook")
		}
		return "v", true, nil
	})
	if _, err := e.DoRouted(context.Background(), "k", thunk("p"), nil); err != nil {
		t.Fatal(err)
	}
}
