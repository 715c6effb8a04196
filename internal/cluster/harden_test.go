package cluster

import (
	"context"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/sim"
	"scaleout/internal/vclock"
)

// routeOnce drives one point through coord.Route, returning its result.
func routeOnce(t *testing.T, coord *Coordinator, cfg sim.Config) (any, bool, error) {
	t.Helper()
	return coord.Route(context.Background(), cfg.Key(), cfg.WirePayload())
}

// waitUntil polls cond without fixed sleeps; it exists for the few
// assertions that depend on a goroutine observing an Advance.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCooldownExpiresOnInjectedClock: a failed replica is down exactly
// until the (virtual) cooldown lapses — no real sleeps anywhere.
func TestCooldownExpiresOnInjectedClock(t *testing.T) {
	clk := vclock.NewFake(time.Unix(0, 0))
	coord, err := New([]string{"127.0.0.1:1"}, WithBatchWindow(0), WithRetries(0),
		WithCooldown(3*time.Second), WithProbeInterval(0), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(1)[0]
	if _, handled, rerr := routeOnce(t, coord, cfg); handled || rerr != nil {
		t.Fatalf("Route = handled %v, err %v; want declined", handled, rerr)
	}
	rep := coord.replicas[0]
	if !rep.down(clk.Now()) {
		t.Fatal("failed replica not in cooldown")
	}
	clk.Advance(2 * time.Second)
	if !rep.down(clk.Now()) {
		t.Fatal("cooldown ended early without a probe")
	}
	clk.Advance(time.Second)
	if rep.down(clk.Now()) {
		t.Fatal("cooldown did not expire on the injected clock")
	}
}

// TestHealthProbeEndsCooldownEarly: a replica that starts failing
// /v1/sweep is marked down for a long cooldown, but the active
// /healthz prober returns it to rotation as soon as it answers — hours
// of virtual cooldown end after one probe interval.
func TestHealthProbeEndsCooldownEarly(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	rep := startReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && failing.Load() {
				http.Error(w, "injected outage", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	clk := vclock.NewFake(time.Unix(0, 0))
	coord, err := New([]string{rep.addr()}, WithBatchWindow(0), WithRetries(0),
		WithCooldown(time.Hour), WithProbeInterval(100*time.Millisecond), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(1)[0]
	if _, handled, rerr := routeOnce(t, coord, cfg); handled || rerr != nil {
		t.Fatalf("Route = handled %v, err %v; want declined while failing", handled, rerr)
	}
	r := coord.replicas[0]
	if !r.down(clk.Now()) {
		t.Fatal("replica not marked down")
	}

	// The replica recovers; the prober (armed on the fake clock) fires
	// after one interval and clears the cooldown 59m59.9s early.
	failing.Store(false)
	clk.BlockUntil(1)
	clk.Advance(100 * time.Millisecond)
	waitUntil(t, func() bool { return !r.down(clk.Now()) })
	if r.probes.Load() == 0 {
		t.Fatal("recovery did not come from a probe")
	}

	// Back in rotation: the same point now routes and returns the
	// local-identical result.
	val, handled, rerr := routeOnce(t, coord, cfg)
	if !handled || rerr != nil {
		t.Fatalf("Route after recovery = handled %v, err %v", handled, rerr)
	}
	want, err := sim.Run(cfg)
	if err != nil || !reflect.DeepEqual(val, want) {
		t.Fatalf("post-recovery result differs: %v", err)
	}
	st := coord.Stats()
	if st.Peers[0].Probes == 0 || st.Peers[0].Down {
		t.Fatalf("peer stats = %+v, want probes recorded and up", st.Peers[0])
	}
}

// TestReplicaBusyHonored: a replica answering 429 with a Retry-After
// hint is waited out and retried — never marked down, never charged a
// failure — and the point still lands on it.
func TestReplicaBusyHonored(t *testing.T) {
	var sheds atomic.Int64
	rep := startReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && sheds.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				http.Error(w, "shedding", http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	coord, err := New([]string{rep.addr()}, WithBatchWindow(0),
		WithRetries(3), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(1)[0]
	val, handled, rerr := routeOnce(t, coord, cfg)
	if !handled || rerr != nil {
		t.Fatalf("Route = handled %v, err %v", handled, rerr)
	}
	want, err := sim.Run(cfg)
	if err != nil || !reflect.DeepEqual(val, want) {
		t.Fatalf("result differs: %v", err)
	}
	st := coord.Stats()
	if st.Busy != 2 || st.Peers[0].Busy != 2 {
		t.Fatalf("stats = %+v, want 2 busy responses honored", st)
	}
	if st.Peers[0].Failures != 0 || st.Peers[0].Down {
		t.Fatalf("peer stats = %+v: shedding must not look like failure", st.Peers[0])
	}
	if st.Routed != 1 {
		t.Fatalf("stats = %+v, want the point routed after the busy waits", st)
	}
}

// TestPostTimeoutFailsOver: a hung replica is bounded by the per-post
// timeout and the point fails over to the next-ranked owner instead of
// stalling for the old flat ten minutes.
func TestPostTimeoutFailsOver(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	// Which replica hangs is chosen once the ports are known: rendezvous
	// ranks depend on the replica addresses, so a fixed choice could
	// leave the hung replica owning none of the keys, and nothing would
	// time out.
	var hangs atomic.Int32
	hangs.Store(-1)
	reps := make([]*testReplica, 2)
	for i := range reps {
		i := int32(i)
		reps[i] = startReplica(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/sweep" && hangs.Load() == i {
					<-release // hold the request until the test ends
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	}
	coord, err := New([]string{reps[0].addr(), reps[1].addr()}, WithBatchWindow(0),
		WithRetries(0), WithPostTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := testConfigs(8)
	// Hang the owner of the first key, so at least one point must time
	// out and fail over.
	hungIdx := 0
	if coord.rank(cfgs[0].Key())[0].addr != reps[0].addr() {
		hungIdx = 1
	}
	hung, healthy := reps[hungIdx], reps[1-hungIdx]
	hangs.Store(int32(hungIdx))
	// Warm the healthy replica: its answers are then memo hits, well
	// inside the post timeout even on a loaded host, so only the hung
	// replica can be charged a timeout.
	if _, err := exp.Sims(exp.WithEngine(context.Background(), healthy.eng), cfgs); err != nil {
		t.Fatal(err)
	}
	eng := exp.New(4)
	eng.SetRoute(coord.Route)
	got, err := exp.Sims(exp.WithEngine(context.Background(), eng), cfgs)
	if err != nil {
		t.Fatalf("Sims: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d differs after post-timeout failover: %v", i, err)
		}
	}
	st := coord.Stats()
	if st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v: want failover to the healthy replica, not local compute", st)
	}
	var hungStats PeerStats
	for _, p := range st.Peers {
		if p.Addr == hung.addr() {
			hungStats = p
		}
	}
	if hungStats.Failures == 0 {
		t.Fatalf("peer stats = %+v: the hung replica should be charged its timeouts", hungStats)
	}
}

// TestBackoffBoundedAndJittered: the schedule doubles from base to cap
// with jitter confined to [d/2, d].
func TestBackoffBoundedAndJittered(t *testing.T) {
	coord, err := New([]string{"a:1"}, WithBackoff(10*time.Millisecond, 80*time.Millisecond), WithJitterSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 8; try++ {
		d := 10 * time.Millisecond << try
		if d > 80*time.Millisecond {
			d = 80 * time.Millisecond
		}
		for i := 0; i < 32; i++ {
			got := coord.backoff(try)
			if got < d/2 || got > d {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", try, got, d/2, d)
			}
		}
	}
}

// TestClampHint: Retry-After hints are clamped into
// [backoff base, cooldown].
func TestClampHint(t *testing.T) {
	coord, err := New([]string{"a:1"}, WithBackoff(20*time.Millisecond, time.Second), WithCooldown(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want time.Duration }{
		{0, 20 * time.Millisecond},                    // missing hint: backoff base, never busy-spin
		{time.Second, time.Second},                    // sane hint honored exactly
		{time.Minute, 3 * time.Second},                // huge hint capped at the cooldown
		{5 * time.Millisecond, 20 * time.Millisecond}, // sub-base hint raised
	}
	for _, tc := range cases {
		if got := coord.clampHint(tc.in); got != tc.want {
			t.Errorf("clampHint(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Errorf("parseRetryAfter(7) = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("parseRetryAfter(empty) = %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("parseRetryAfter(-3) = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("parseRetryAfter(garbage) = %v", d)
	}
}
