package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/vclock"
	"scaleout/internal/workload"
)

// testReplica is one in-process soprocd: a serve handler on its own
// engine, optionally wrapped for fault injection.
type testReplica struct {
	srv *httptest.Server
	eng *exp.Engine
}

func (r *testReplica) addr() string { return r.srv.URL }

func (r *testReplica) statsz(t *testing.T) serve.StatsResponse {
	t.Helper()
	resp, err := http.Get(r.srv.URL + "/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	return st
}

func startReplica(t *testing.T, wrap func(http.Handler) http.Handler) *testReplica {
	t.Helper()
	eng := exp.New(2)
	h := http.Handler(serve.New(eng))
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &testReplica{srv: srv, eng: eng}
}

func startCluster(t *testing.T, n int, opts ...Option) ([]*testReplica, *Coordinator, *exp.Engine) {
	t.Helper()
	reps := make([]*testReplica, n)
	addrs := make([]string, n)
	for i := range reps {
		reps[i] = startReplica(t, nil)
		addrs[i] = reps[i].addr()
	}
	coord, err := New(addrs, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := exp.New(0)
	eng.SetRoute(coord.Route)
	return reps, coord, eng
}

func testConfigs(n int) []sim.Config {
	w, _ := workload.ByName(workload.Names()[0])
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = sim.Config{
			Workload: w, CoreType: tech.OoO, Cores: 4 + 4*(i%4), LLCMB: 2 + float64(i%3),
			WarmupCycles: 500, MeasureCycles: 1000, Seed: uint64(1 + i/12),
		}
	}
	return cfgs
}

// TestClusterSweepByteIdentical: a sweep routed across three replicas
// returns exactly what local computation returns, every point lands on
// a replica, and each distinct configuration is computed exactly once
// cluster-wide (the sharded memo does not duplicate work).
func TestClusterSweepByteIdentical(t *testing.T) {
	reps, coord, eng := startCluster(t, 3)
	cfgs := testConfigs(24)

	ctx := exp.WithEngine(context.Background(), eng)
	got, err := exp.Sims(ctx, cfgs)
	if err != nil {
		t.Fatalf("Sims: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("local Run: %v", err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d: cluster %+v != local %+v", i, got[i], want)
		}
	}

	distinct := make(map[string]bool)
	for _, c := range cfgs {
		distinct[c.Key()] = true
	}
	st := coord.Stats()
	if st.Routed != int64(len(distinct)) || st.Unroutable != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v, want %d routed and no fallbacks", st, len(distinct))
	}
	if est := eng.Stats(); est.Remote != int64(len(distinct)) || est.Misses != 0 {
		t.Fatalf("engine stats = %+v, want all %d points remote", est, len(distinct))
	}
	var replicaMisses int64
	var spread int
	for _, rep := range reps {
		m := rep.statsz(t).Memo.Misses
		replicaMisses += m
		if m > 0 {
			spread++
		}
	}
	if replicaMisses != int64(len(distinct)) {
		t.Fatalf("replicas computed %d points, want exactly %d (no duplication)", replicaMisses, len(distinct))
	}
	if spread < 2 {
		t.Fatalf("memo spread across %d replicas, want >= 2", spread)
	}
}

// TestClusterStructuralSweep routes structural points too.
func TestClusterStructuralSweep(t *testing.T) {
	_, coord, eng := startCluster(t, 2)
	w, _ := workload.ByName(workload.Names()[1])
	cfgs := []sim.StructuralConfig{
		{Workload: w, CoreType: tech.OoO, Cores: 2, LLCMB: 2, WarmupCycles: 2000, MeasureCycles: 1000},
		{Workload: w, CoreType: tech.OoO, Cores: 4, LLCMB: 2, WarmupCycles: 2000, MeasureCycles: 1000},
	}
	ctx := exp.WithEngine(context.Background(), eng)
	got, err := exp.Structurals(ctx, cfgs)
	if err != nil {
		t.Fatalf("Structurals: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.RunStructural(cfg)
		if err != nil {
			t.Fatalf("local RunStructural: %v", err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d: cluster %+v != local %+v", i, got[i], want)
		}
	}
	if st := coord.Stats(); st.Routed != 2 {
		t.Fatalf("stats = %+v, want 2 routed", st)
	}
}

// TestClusterFigureByteIdentical: a full figure rendered through the
// cluster is byte-identical to the single-node rendering.
func TestClusterFigureByteIdentical(t *testing.T) {
	_, coord, eng := startCluster(t, 3)

	ctx := exp.WithEngine(context.Background(), eng)
	clustered, err := figures.RunContext(ctx, "fig2.1")
	if err != nil {
		t.Fatalf("clustered run: %v", err)
	}
	local, err := figures.RunContext(exp.WithEngine(context.Background(), exp.New(0)), "fig2.1")
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if clustered.String() != local.String() {
		t.Fatalf("fig2.1 differs:\ncluster:\n%s\nlocal:\n%s", clustered.String(), local.String())
	}
	if st := coord.Stats(); st.Routed == 0 {
		t.Fatal("figure run routed nothing")
	}
}

// TestClusterFailoverMidSweep kills one replica partway through a sweep
// and asserts the re-hashed retries return byte-identical results while
// the stats show its shard redistributed to the survivors.
func TestClusterFailoverMidSweep(t *testing.T) {
	var killed atomic.Bool
	var victimServed atomic.Int64
	victim := startReplica(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" {
				if killed.Load() {
					http.Error(w, "replica killed", http.StatusServiceUnavailable)
					return
				}
				if victimServed.Add(1) >= 2 {
					killed.Store(true) // die after this response
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	survivors := []*testReplica{startReplica(t, nil), startReplica(t, nil)}
	addrs := []string{victim.addr(), survivors[0].addr(), survivors[1].addr()}

	// One point per POST so the kill lands mid-sweep, between batches;
	// a small retry budget so the test exercises the backoff path
	// without waiting out the default schedule.
	coord, err := New(addrs, WithMaxBatch(1), WithBatchWindow(0),
		WithRetries(1), WithBackoff(time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := exp.New(2) // serial enough that posts interleave with the kill
	eng.SetRoute(coord.Route)

	cfgs := testConfigs(24)
	ctx := exp.WithEngine(context.Background(), eng)
	got, err := exp.Sims(ctx, cfgs)
	if err != nil {
		t.Fatalf("Sims: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("local Run: %v", err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d differs after failover", i)
		}
	}

	st := coord.Stats()
	if st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v: failover should re-hash, not fall back locally", st)
	}
	if st.Failovers == 0 {
		t.Fatalf("stats = %+v: expected re-hashed retries after the kill", st)
	}
	if st.Retries == 0 {
		t.Fatalf("stats = %+v: the killed replica should have been retried before failover", st)
	}
	var victimStats, survivorSent PeerStats
	for _, p := range st.Peers {
		if p.Addr == victim.addr() {
			victimStats = p
		} else {
			survivorSent.Sent += p.Sent
		}
	}
	if victimStats.Failures == 0 || !victimStats.Down {
		t.Fatalf("victim peer stats = %+v, want failures and down", victimStats)
	}
	if survivorSent.Sent+victimStats.Sent != st.Routed {
		t.Fatalf("sent %d+%d != routed %d", survivorSent.Sent, victimStats.Sent, st.Routed)
	}
	// /statsz shows the redistribution: the survivors computed every
	// point the dead replica did not manage to answer.
	var survivorMisses int64
	for _, rep := range survivors {
		survivorMisses += rep.statsz(t).Memo.Misses
	}
	distinct := make(map[string]bool)
	for _, c := range cfgs {
		distinct[c.Key()] = true
	}
	if want := int64(len(distinct)) - victimStats.Sent; survivorMisses != want {
		t.Fatalf("survivors computed %d points, want %d (= %d distinct - %d answered by victim)",
			survivorMisses, want, len(distinct), victimStats.Sent)
	}
}

// TestRendezvousRedistribution: removing a replica re-homes only the
// keys it owned — every other key keeps its (warm) owner.
func TestRendezvousRedistribution(t *testing.T) {
	full, err := New([]string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New([]string{"a:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.rank(key)[0].base
		after := reduced.rank(key)[0].base
		if before == "http://b:1" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}
	if moved == 0 || moved == 200 {
		t.Fatalf("b owned %d/200 keys; the hash is not spreading", moved)
	}
}

// TestRendezvousIndependentScores: over random loopback replica sets
// and random point keys, the rate at which some replica owns none of a
// request's keys is the rate independent scores predict, and removing
// a replica re-homes only the keys it owned.
func TestRendezvousIndependentScores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const trials = 20000
	for _, c := range []struct{ replicas, keys int }{{2, 8}, {3, 16}} {
		// P(some replica owns no key), by inclusion–exclusion over the
		// replicas left empty.
		want, sign := 0.0, 1.0
		for j := 1; j < c.replicas; j++ {
			want += sign * binomial(c.replicas, j) * math.Pow(float64(c.replicas-j)/float64(c.replicas), float64(c.keys))
			sign = -sign
		}
		empty := 0
		for trial := 0; trial < trials; trial++ {
			var addrs []string
			for seen := map[int]bool{}; len(addrs) < c.replicas; {
				if port := 1024 + rng.Intn(64512); !seen[port] {
					seen[port] = true
					addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", port))
				}
			}
			full, err := New(addrs)
			if err != nil {
				t.Fatal(err)
			}
			gone := rng.Intn(c.replicas)
			reduced, err := New(append(append([]string(nil), addrs[:gone]...), addrs[gone+1:]...))
			if err != nil {
				t.Fatal(err)
			}
			owned := make(map[string]int)
			for k := 0; k < c.keys; k++ {
				key := fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
				before, after := full.rank(key)[0].addr, reduced.rank(key)[0].addr
				owned[before]++
				if before != addrs[gone] && before != after {
					t.Fatalf("%v: key %s moved %s -> %s though its owner survived", addrs, key, before, after)
				}
			}
			if len(owned) < c.replicas {
				empty++
			}
		}
		sd := math.Sqrt(trials * want * (1 - want))
		t.Logf("%d replicas, %d keys: %d of %d sets left a replica empty, independence predicts %.0f ± %.0f", c.replicas, c.keys, empty, trials, trials*want, sd)
		if got := float64(empty); math.Abs(got-trials*want) > 4.5*sd {
			t.Errorf("%d replicas, %d keys: %d of %d sets left a replica with no key, want %.0f ± %.0f", c.replicas, c.keys, empty, trials, trials*want, 4.5*sd)
		}
	}
}

// binomial is n choose k.
func binomial(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// TestClusterWireDeltaRoutes: the configurations the legacy symbolic
// wire form silently computed on the coordinator — WireDelta meshes,
// express-linked NOC-Out, perturbed workloads — now route to replicas
// like any other point, byte-identically.
func TestClusterWireDeltaRoutes(t *testing.T) {
	reps, coord, eng := startCluster(t, 2)
	w, _ := workload.ByName(workload.Names()[0])
	net := noc.New(noc.Mesh, 8)
	net.WireDelta = -0.25 * net.OneWayLatency() // the ch4 3D-stacked variant
	nocOut := noc.New(noc.NOCOut, 8)
	nocOut.Concentration = 2
	nocOut.ExpressLinks = true
	perturbed := w
	perturbed.APKI *= 1.5 // not a suite entry
	cfgs := []sim.Config{
		{Workload: w, CoreType: tech.OoO, Cores: 8, LLCMB: 2, Net: net,
			WarmupCycles: 500, MeasureCycles: 1000},
		{Workload: w, CoreType: tech.OoO, Cores: 8, LLCMB: 2, Net: nocOut,
			WarmupCycles: 500, MeasureCycles: 1000},
		{Workload: perturbed, CoreType: tech.OoO, Cores: 8, LLCMB: 2,
			WarmupCycles: 500, MeasureCycles: 1000},
	}

	ctx := exp.WithEngine(context.Background(), eng)
	got, err := exp.Sims(ctx, cfgs)
	if err != nil {
		t.Fatalf("Sims: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d: routed result differs: %v", i, err)
		}
	}
	if st := coord.Stats(); st.Unroutable != 0 || st.Routed != int64(len(cfgs)) {
		t.Fatalf("stats = %+v, want %d routed and 0 unroutable", st, len(cfgs))
	}
	var replicaMisses int64
	for _, rep := range reps {
		replicaMisses += rep.statsz(t).Memo.Misses
	}
	if replicaMisses != int64(len(cfgs)) {
		t.Fatalf("replicas computed %d points, want %d", replicaMisses, len(cfgs))
	}
	if est := eng.Stats(); est.Misses != 0 {
		t.Fatalf("engine stats = %+v, want nothing computed locally", est)
	}
}

// TestClusterUnroutableFallsBack: a point whose payload has no wire
// form — an invalid configuration's Unroutable marker, or a foreign
// payload type — is computed locally, with identical accounting, and
// never reaches a replica.
func TestClusterUnroutableFallsBack(t *testing.T) {
	reps, coord, _ := startCluster(t, 2)
	w, _ := workload.ByName(workload.Names()[0])
	invalid := sim.Config{Workload: w, CoreType: tech.OoO, Cores: 0, LLCMB: 2}
	if _, ok := invalid.WirePayload().(sim.Unroutable); !ok {
		t.Fatalf("WirePayload of an invalid config = %T, want sim.Unroutable", invalid.WirePayload())
	}
	if _, handled, err := coord.Route(context.Background(), invalid.Key(), invalid.WirePayload()); handled || err != nil {
		t.Fatalf("Route(unroutable) = handled %v, err %v; want declined", handled, err)
	}
	if _, handled, err := coord.Route(context.Background(), "k", "not a wire payload"); handled || err != nil {
		t.Fatalf("Route(foreign payload) = handled %v, err %v; want declined", handled, err)
	}
	if st := coord.Stats(); st.Unroutable != 2 || st.Routed != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v, want 2 unroutable, 0 routed, 0 fallbacks", st)
	}
	for _, rep := range reps {
		if m := rep.statsz(t).Memo.Misses; m != 0 {
			t.Fatalf("replica computed %d points for an unroutable payload", m)
		}
	}
}

// TestClusterFormerlyUnroutableFiguresByteIdentical: ch4 (whose
// scale-limited pods carry WireDelta interconnects) and the extensions
// structural study — the generators the legacy wire form could never
// shard — render byte-identically through a 3-replica cluster with
// zero representability fallbacks.
func TestClusterFormerlyUnroutableFiguresByteIdentical(t *testing.T) {
	_, coord, eng := startCluster(t, 3)
	for _, id := range []string{"fig4.3", "ext.structural"} {
		clustered, err := figures.RunContext(exp.WithEngine(context.Background(), eng), id)
		if err != nil {
			t.Fatalf("%s clustered run: %v", id, err)
		}
		local, err := figures.RunContext(exp.WithEngine(context.Background(), exp.New(0)), id)
		if err != nil {
			t.Fatalf("%s local run: %v", id, err)
		}
		if clustered.String() != local.String() {
			t.Fatalf("%s differs:\ncluster:\n%s\nlocal:\n%s", id, clustered.String(), local.String())
		}
	}
	st := coord.Stats()
	if st.Unroutable != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v, want zero unroutable and zero fallbacks", st)
	}
	if st.Routed == 0 {
		t.Fatal("formerly-unroutable figures routed nothing")
	}
	if est := eng.Stats(); est.Remote != st.Routed {
		t.Fatalf("engine remote %d != routed %d: some points computed locally", est.Remote, st.Routed)
	}
}

// TestWireVersionRejectIsPermanent: a replica that does not speak this
// coordinator's wire version answers with the structured 400; the
// coordinator must treat it as permanent — no same-replica retry, no
// markDown — fail over, and still produce the correct result from a
// compatible replica (or locally when none exists).
func TestWireVersionRejectIsPermanent(t *testing.T) {
	// Which replica rejects is chosen once the ports are known: the
	// owner of the test key, so the reject path runs before failover
	// reaches the compatible replica. A fixed choice could leave the
	// rejecting replica owning none of the test keys.
	var rejects atomic.Int64
	var rejecting atomic.Int32
	rejecting.Store(-1)
	reps := make([]*testReplica, 2)
	for i := range reps {
		i := int32(i)
		reps[i] = startReplica(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/sweep" && rejecting.Load() == i {
					rejects.Add(1)
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusBadRequest)
					fmt.Fprintf(w, `{"error": "point 0: unsupported wire_version", "wire_version": %d, "supported_wire_version": 99}`, sim.WireVersion)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	}
	coord, err := New([]string{reps[0].addr(), reps[1].addr()},
		WithBatchWindow(0), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(1)[0]
	rejectIdx := 0
	if coord.rank(cfg.Key())[0].base != reps[0].addr() {
		rejectIdx = 1
	}
	rejecting.Store(int32(rejectIdx))
	rejectingAddr := reps[rejectIdx].addr()

	val, handled, err := coord.Route(context.Background(), cfg.Key(), cfg.WirePayload())
	if err != nil || !handled {
		t.Fatalf("Route = handled %v, err %v; want failover to the compatible replica", handled, err)
	}
	want, err := sim.Run(cfg)
	if err != nil || !reflect.DeepEqual(val, want) {
		t.Fatalf("failover result differs: %v", err)
	}
	st := coord.Stats()
	if rejects.Load() != 1 || st.Retries != 0 {
		t.Fatalf("rejecting replica saw %d posts (%d retries), want exactly 1 and none: rejection must not be retried", rejects.Load(), st.Retries)
	}
	if st.Rejects != 1 || st.Failovers != 1 || st.LocalFallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 reject, 1 failover, 0 fallbacks", st)
	}
	for _, p := range st.Peers {
		if p.Addr == rejectingAddr && p.Down {
			t.Fatal("incompatible replica marked down; rejection is not unhealth")
		}
	}
}

// TestClusterBatching: points released together coalesce into per-replica
// POSTs instead of one request per point.
func TestClusterBatching(t *testing.T) {
	_, coord, eng := startCluster(t, 3, WithBatchWindow(100*time.Millisecond))
	cfgs := testConfigs(24)
	ctx := exp.WithEngine(context.Background(), eng)
	if _, err := exp.Sims(ctx, cfgs); err != nil {
		t.Fatalf("Sims: %v", err)
	}
	st := coord.Stats()
	if st.Posts > 3 {
		t.Fatalf("%d points took %d posts, want at most one per replica", st.Routed, st.Posts)
	}
}

// TestForwardedRequestsNeverLoop: two daemons configured as each other's
// peers must degenerate to one forwarding hop — the forwarded request
// computes locally — not an infinite bounce.
func TestForwardedRequestsNeverLoop(t *testing.T) {
	// Build a and b with mutual routes. Addresses must exist before
	// coordinators do, so wire the routes up after both are listening.
	a := startReplica(t, nil)
	b := startReplica(t, nil)
	coordA, err := New([]string{b.addr()})
	if err != nil {
		t.Fatal(err)
	}
	coordB, err := New([]string{a.addr()})
	if err != nil {
		t.Fatal(err)
	}
	a.eng.SetRoute(coordA.Route)
	b.eng.SetRoute(coordB.Route)

	// A client sweep against a: a routes every point to b (its only
	// peer); b must compute them itself rather than bouncing back to a.
	w, _ := workload.ByName(workload.Names()[0])
	cfg := sim.Config{Workload: w, CoreType: tech.OoO, Cores: 4, LLCMB: 2,
		WarmupCycles: 500, MeasureCycles: 1000}
	body, _ := json.Marshal(serve.SweepRequest{Points: mustWire(t, cfg)})
	resp, err := http.Post(a.srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %s", resp.Status)
	}
	var sr serve.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := sim.Run(cfg)
	if err != nil || sr.Results[0].Sim == nil || !reflect.DeepEqual(*sr.Results[0].Sim, want) {
		t.Fatalf("mutual-peer sweep result differs: %v", err)
	}
	if m := b.statsz(t).Memo.Misses; m != 1 {
		t.Fatalf("b computed %d points, want 1 (forwarded request computes locally)", m)
	}
	if st := coordB.Stats(); st.Routed != 0 {
		t.Fatalf("b re-routed a forwarded request: %+v", st)
	}
}

// TestAbandonedBatchDetached: a batch whose every caller disconnected
// before the flush must not linger in the pending map — a later caller
// inside the same window must open a fresh batch and succeed, without
// the healthy replica being blamed for the dead batch's cancellation.
// The batch window runs on an injected fake clock, so the test drives
// both windows with Advance instead of real sleeps.
func TestAbandonedBatchDetached(t *testing.T) {
	rep := startReplica(t, nil)
	clk := vclock.NewFake(time.Unix(0, 0))
	coord, err := New([]string{rep.addr()}, WithBatchWindow(100*time.Millisecond), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	wire := mustWire(t, testConfigs(1)[0])[0]

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.enqueue(cancelled, coord.replicas[0], wire); err == nil {
		t.Fatal("enqueue on a cancelled context succeeded")
	}
	// Still inside the abandoned batch's (virtual) window: must not
	// join it. The fresh enqueue parks until its own window timer
	// fires, so drive the clock once both timers are armed — the dead
	// batch's flush must be a no-op, the live one must POST.
	type out struct {
		res serve.SweepResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := coord.enqueue(context.Background(), coord.replicas[0], wire)
		done <- out{res, err}
	}()
	clk.BlockUntil(2)
	clk.Advance(100 * time.Millisecond)
	got := <-done
	if got.err != nil {
		t.Fatalf("enqueue after abandoned batch: %v", got.err)
	}
	if got.res.Sim == nil {
		t.Fatal("no result from fresh batch")
	}
	if f := coord.replicas[0].failures.Load(); f != 0 {
		t.Fatalf("healthy replica charged with %d failures from an abandoned batch", f)
	}
	if coord.replicas[0].down(clk.Now()) {
		t.Fatal("healthy replica marked down by an abandoned batch")
	}
}

// TestRouteAttemptsEachReplicaOnce: with a zero retry budget and every
// replica unreachable, a point tries each exactly once — a replica
// that failed during this very call is not immediately re-attempted by
// the cooldown pass.
func TestRouteAttemptsEachReplicaOnce(t *testing.T) {
	// Ports from the reserved loopback range with nothing listening:
	// connection refused, instantly.
	coord, err := New([]string{"127.0.0.1:1", "127.0.0.1:2"}, WithBatchWindow(0), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs(1)[0]
	_, handled, rerr := coord.Route(context.Background(), cfg.Key(), cfg.WirePayload())
	if handled || rerr != nil {
		t.Fatalf("Route = handled %v, err %v; want declined", handled, rerr)
	}
	st := coord.Stats()
	if st.LocalFallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 local fallback", st)
	}
	for _, p := range st.Peers {
		if p.Failures != 1 {
			t.Fatalf("peer %s attempted %d times, want exactly 1", p.Addr, p.Failures)
		}
	}
}

func mustWire(t *testing.T, cfg sim.Config) []serve.SweepPoint {
	t.Helper()
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	p, err := serve.WirePoint(wc)
	if err != nil {
		t.Fatalf("WirePoint: %v", err)
	}
	return []serve.SweepPoint{p}
}
