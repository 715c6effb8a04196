package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// thunk returns a payload thunk that builds v.
func thunk(v any) func() any { return func() any { return v } }

// countingThunk returns a payload thunk that builds v and counts its
// calls.
func countingThunk(v any) (func() any, *atomic.Int64) {
	var n atomic.Int64
	return func() any { n.Add(1); return v }, &n
}

// hitStore is an engine Store that holds one key.
type hitStore struct{ key string }

func (s hitStore) Load(key string) (any, bool) { return "stored", key == s.key }
func (hitStore) Save(string, any)              {}

// TestRoutePayloadBuiltOnlyWhenRouted: DoRouted builds the payload only
// for a point it is about to offer a router — never for a memo hit, a
// store hit, an unmemoized call, an engine without a router, or a
// DisableRouting context — and exactly once on a routed miss.
func TestRoutePayloadBuiltOnlyWhenRouted(t *testing.T) {
	ctx := context.Background()
	local := func() (any, error) { return "local", nil }
	routed := func(e *Engine) {
		e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
			return payload, true, nil
		})
	}
	for _, tc := range []struct {
		name  string
		run   func(payload func() any) (any, error)
		want  any
		calls int64
	}{
		{"routed miss", func(p func() any) (any, error) {
			e := New(1)
			routed(e)
			return e.DoRouted(ctx, "k", p, local)
		}, "payload", 1},
		{"memo hit", func(p func() any) (any, error) {
			e := New(1)
			routed(e)
			if _, err := e.Do(ctx, "k", local); err != nil {
				return nil, err
			}
			return e.DoRouted(ctx, "k", p, local)
		}, "local", 0},
		{"store hit", func(p func() any) (any, error) {
			e := New(1)
			routed(e)
			e.SetStore(hitStore{key: "k"})
			return e.DoRouted(ctx, "k", p, local)
		}, "stored", 0},
		{"empty key", func(p func() any) (any, error) {
			e := New(1)
			routed(e)
			return e.DoRouted(ctx, "", p, local)
		}, "local", 0},
		{"no router", func(p func() any) (any, error) {
			return New(1).DoRouted(ctx, "k", p, local)
		}, "local", 0},
		{"routing disabled", func(p func() any) (any, error) {
			e := New(1)
			routed(e)
			return e.DoRouted(DisableRouting(ctx), "k", p, local)
		}, "local", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, calls := countingThunk("payload")
			v, err := tc.run(payload)
			if err != nil || v != tc.want {
				t.Fatalf("DoRouted = %v, %v, want %v", v, err, tc.want)
			}
			if calls.Load() != tc.calls {
				t.Fatalf("payload built %d times, want %d", calls.Load(), tc.calls)
			}
		})
	}
}

// TestRouteNilPayloadComputesLocally: a thunk that builds no payload —
// an exp.Func point without P — computes locally and never reaches the
// router.
func TestRouteNilPayloadComputesLocally(t *testing.T) {
	e := New(1)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		t.Error("router consulted for a nil payload")
		return nil, false, nil
	})
	payload, calls := countingThunk(nil)
	v, err := e.DoRouted(context.Background(), "k", payload, func() (any, error) { return 5, nil })
	if err != nil || v.(int) != 5 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("payload built %d times, want 1", calls.Load())
	}
	if st := e.Stats(); st.Remote != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Remote 0, Misses 1", st)
	}
}

// TestRouteResolvesAndMemoizes: a handled route result is memoized under
// the key like a local computation — the second request is a hit and the
// router is not consulted again.
func TestRouteResolvesAndMemoizes(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		calls.Add(1)
		return payload.(int) * 10, true, nil
	})
	compute := func() (any, error) { t.Fatal("computed locally despite router"); return nil, nil }

	for i := 0; i < 2; i++ {
		v, err := e.DoRouted(context.Background(), "k", thunk(7), compute)
		if err != nil || v.(int) != 70 {
			t.Fatalf("DoRouted = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("router called %d times, want 1 (second request is a memo hit)", calls.Load())
	}
	st := e.Stats()
	if st.Remote != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want Remote 1, Hits 1, Misses 0", st)
	}
}

// TestRouteDeclinedComputesLocally: handled=false falls through to the
// local pool, and the router sees each declined key once per miss.
func TestRouteDeclinedComputesLocally(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		return nil, false, nil
	})
	v, err := e.DoRouted(context.Background(), "k", thunk("payload"), func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
	st := e.Stats()
	if st.Remote != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Remote 0, Misses 1", st)
	}
}

// TestRouteSkippedWithoutPayload: nil payloads and plain Do calls never
// reach the router.
func TestRouteSkippedWithoutPayload(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		t.Error("router consulted for nil payload")
		return nil, false, nil
	})
	if v, err := e.Do(context.Background(), "k", func() (any, error) { return 1, nil }); err != nil || v.(int) != 1 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if v, err := e.DoRouted(context.Background(), "k2", nil, func() (any, error) { return 2, nil }); err != nil || v.(int) != 2 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
}

// TestRouteDisabledByContext: DisableRouting forces local computation on
// an engine with a router — the forwarded-request loop guard.
func TestRouteDisabledByContext(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		t.Error("router consulted on a DisableRouting context")
		return nil, false, nil
	})
	ctx := DisableRouting(context.Background())
	v, err := e.DoRouted(ctx, "k", thunk("payload"), func() (any, error) { return 3, nil })
	if err != nil || v.(int) != 3 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
}

// TestRouteCancellationWithdraws: a routed cancellation is not a fact
// about the key — the entry is withdrawn and the next request retries
// the router for real.
func TestRouteCancellationWithdraws(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		if calls.Add(1) == 1 {
			return nil, true, context.Canceled
		}
		return 99, true, nil
	})
	if _, err := e.DoRouted(context.Background(), "k", thunk(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("first DoRouted err = %v, want context.Canceled", err)
	}
	v, err := e.DoRouted(context.Background(), "k", thunk(1), nil)
	if err != nil || v.(int) != 99 {
		t.Fatalf("retry DoRouted = %v, %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("router called %d times, want 2", calls.Load())
	}
}

// TestRouteSingleFlight: concurrent requests for one key share one
// routed flight, on bounded and unbounded engines alike.
func TestRouteSingleFlight(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			e := NewBounded(4, capacity)
			var calls atomic.Int64
			gate := make(chan struct{})
			e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
				calls.Add(1)
				<-gate
				return "v", true, nil
			})
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := e.DoRouted(context.Background(), "k", thunk("p"), nil)
					if err != nil || v.(string) != "v" {
						t.Errorf("DoRouted = %v, %v", v, err)
					}
				}()
			}
			close(gate)
			wg.Wait()
			if calls.Load() != 1 {
				t.Fatalf("router called %d times, want 1", calls.Load())
			}
		})
	}
}
