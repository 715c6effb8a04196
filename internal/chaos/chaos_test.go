package chaos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/chaos"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// startDaemon is one in-process soprocd: a serve handler on its own
// engine.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.New(exp.New(2)))
	t.Cleanup(srv.Close)
	return srv
}

// startProxy puts a chaos proxy in front of target and returns the
// proxy plus its listening server.
func startProxy(t *testing.T, target string, f chaos.Faults) (*chaos.Proxy, *httptest.Server) {
	t.Helper()
	p, err := chaos.NewProxy(target, f)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func configs(n int) []sim.Config {
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

// TestTransportPassthrough: zero rates leave the exchange untouched.
func TestTransportPassthrough(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello from the backend")
	}))
	defer backend.Close()
	tr := chaos.NewTransport(nil, chaos.Faults{})
	client := &http.Client{Transport: tr}
	for i := 0; i < 5; i++ {
		resp, err := client.Get(backend.URL)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "hello from the backend" {
			t.Fatalf("body = %q, %v", body, err)
		}
	}
	if st := tr.Stats(); st.Requests != 5 || st.Passed != 5 || st.Errors+st.Resets+st.Torn+st.Delayed != 0 {
		t.Fatalf("stats = %+v, want 5 clean passes", st)
	}
}

// outcome classifies one request through a fault transport.
func outcome(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return "reset"
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "torn"
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("err:%d", resp.StatusCode)
	}
	return "ok:" + string(body)
}

// TestTransportDeterministic: the same seed yields the same fault
// sequence, request for request.
func TestTransportDeterministic(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload-payload-payload")
	}))
	defer backend.Close()
	f := chaos.Faults{Seed: 42, ErrorRate: 0.3, ResetRate: 0.2, TornRate: 0.2}
	run := func() []string {
		client := &http.Client{Transport: chaos.NewTransport(nil, f)}
		out := make([]string, 40)
		for i := range out {
			out[i] = outcome(client, backend.URL)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault sequences:\n%v\n%v", a, b)
	}
	kinds := map[string]bool{}
	for _, o := range a {
		kinds[o] = true
	}
	if len(kinds) < 3 {
		t.Fatalf("fault mix did not exercise multiple kinds: %v", kinds)
	}
}

// TestTransportFaultKinds pins each fault kind at rate 1.
func TestTransportFaultKinds(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "0123456789")
	}))
	defer backend.Close()

	errClient := &http.Client{Transport: chaos.NewTransport(nil, chaos.Faults{ErrorRate: 1})}
	resp, err := errClient.Get(backend.URL)
	if err != nil {
		t.Fatalf("error injection should still answer HTTP: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("injected status = %d, want default 502", resp.StatusCode)
	}

	resetClient := &http.Client{Transport: chaos.NewTransport(nil, chaos.Faults{ResetRate: 1})}
	if _, err := resetClient.Get(backend.URL); err == nil {
		t.Fatal("reset injection returned a response")
	}

	tornClient := &http.Client{Transport: chaos.NewTransport(nil, chaos.Faults{TornRate: 1})}
	resp, err = tornClient.Get(backend.URL)
	if err != nil {
		t.Fatalf("torn injection should deliver headers: %v", err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatalf("torn body read succeeded (%q), want a mid-body failure", body)
	}
	if len(body) == 0 || len(body) >= 10 {
		t.Fatalf("torn body delivered %d bytes of 10, want a strict prefix", len(body))
	}
}

// TestProxyChaosz: the proxy reports its own injection counts.
func TestProxyChaosz(t *testing.T) {
	backend := startDaemon(t)
	_, proxy := startProxy(t, backend.URL, chaos.Faults{ErrorRate: 1, ErrorStatus: http.StatusInternalServerError})
	resp, err := http.Get(proxy.URL + "/healthz")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want injected 500", resp.StatusCode)
	}
	resp, err = http.Get(proxy.URL + "/chaosz")
	if err != nil {
		t.Fatalf("chaosz: %v", err)
	}
	defer resp.Body.Close()
	var st chaos.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("chaosz decode: %v", err)
	}
	if st.Requests != 1 || st.Errors != 1 {
		t.Fatalf("chaosz = %+v, want the one injected error counted", st)
	}
}

// TestClusterByteIdenticalUnderFaults is the acceptance centerpiece:
// one replica behind a flaky proxy (25% terminal faults: 5xx, resets,
// torn bodies), one behind a slow proxy (every request delayed — a
// p95 latency spike), one healthy. A sweep and a full figure routed
// through this degraded cluster must be byte-identical to local
// computation; the retry/failover machinery may move work around but
// never change it.
func TestClusterByteIdenticalUnderFaults(t *testing.T) {
	flaky, slow, healthy := startDaemon(t), startDaemon(t), startDaemon(t)
	flakyProxy, flakyFront := startProxy(t, flaky.URL, chaos.Faults{
		Seed: 7, ErrorRate: 0.15, ResetRate: 0.05, TornRate: 0.05,
	})
	_, slowFront := startProxy(t, slow.URL, chaos.Faults{
		Seed: 11, LatencyRate: 1, Latency: 3 * time.Millisecond,
	})

	coord, err := cluster.New(
		[]string{flakyFront.URL, slowFront.URL, healthy.URL},
		cluster.WithRetries(2),
		cluster.WithBackoff(time.Millisecond, 4*time.Millisecond),
		cluster.WithCooldown(50*time.Millisecond),
		cluster.WithProbeInterval(10*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := exp.New(4)
	eng.SetRoute(coord.Route)
	ctx := exp.WithEngine(context.Background(), eng)

	sweep := func(cfgs []sim.Config) {
		t.Helper()
		got, err := exp.Sims(ctx, cfgs)
		if err != nil {
			t.Fatalf("Sims under faults: %v", err)
		}
		for i, cfg := range cfgs {
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("local Run: %v", err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("point %d differs under fault injection", i)
			}
		}
	}
	sweep(configs(24))

	faulted, err := figures.RunContext(ctx, "fig2.1")
	if err != nil {
		t.Fatalf("figure under faults: %v", err)
	}
	local, err := figures.RunContext(exp.WithEngine(context.Background(), exp.New(0)), "fig2.1")
	if err != nil {
		t.Fatalf("local figure: %v", err)
	}
	if faulted.String() != local.String() {
		t.Fatalf("fig2.1 differs under fault injection:\nfaulted:\n%s\nlocal:\n%s",
			faulted.String(), local.String())
	}

	// Which replica owns a point follows the rendezvous hash of its key
	// and the test servers' random ports, so in some runs every point
	// the flaky replica owns travels in one request, which its seeded
	// fault schedule lets through (it faults the second). Sweep fresh
	// points until the proxy has faulted, so every run tests recovery.
	injected := func() bool {
		st := flakyProxy.Stats()
		return st.Errors+st.Resets+st.Torn > 0
	}
	for round := 1; !injected() && round <= 4; round++ {
		fresh := configs(24)
		for i := range fresh {
			fresh[i].Seed += uint64(2 * round)
		}
		sweep(fresh)
	}
	st := flakyProxy.Stats()
	if !injected() {
		t.Fatalf("flaky proxy injected nothing (%+v); the test proved nothing", st)
	}
	cst := coord.Stats()
	if cst.Retries == 0 && cst.Failovers == 0 && cst.LocalFallbacks == 0 {
		t.Fatalf("cluster stats = %+v: faults were injected but nothing was retried", cst)
	}
	t.Logf("flaky proxy: %+v", st)
	t.Logf("cluster: routed=%d retries=%d failovers=%d local=%d",
		cst.Routed, cst.Retries, cst.Failovers, cst.LocalFallbacks)
}

// TestClusterAllReplicasFlaky: even when every replica is reached
// through a faulty client transport, output is byte-identical — the
// engine's local fallback is the floor under the whole tier.
func TestClusterAllReplicasFlaky(t *testing.T) {
	a, b := startDaemon(t), startDaemon(t)
	coord, err := cluster.New([]string{a.URL, b.URL},
		cluster.WithHTTPClient(&http.Client{Transport: chaos.NewTransport(nil, chaos.Faults{
			Seed: 3, ErrorRate: 0.25, ResetRate: 0.1, TornRate: 0.1,
		})}),
		cluster.WithRetries(1),
		cluster.WithBackoff(time.Millisecond, 2*time.Millisecond),
		cluster.WithCooldown(20*time.Millisecond),
		cluster.WithProbeInterval(5*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng := exp.New(4)
	eng.SetRoute(coord.Route)
	cfgs := configs(16)
	got, err := exp.Sims(exp.WithEngine(context.Background(), eng), cfgs)
	if err != nil {
		t.Fatalf("Sims: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d differs with a flaky client transport: %v", i, err)
		}
	}
}

// TestShedRequestsFailFast: a saturated daemon answers 429 +
// Retry-After immediately instead of parking the caller behind a full
// queue.
func TestShedRequestsFailFast(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ctrl := admit.New(admit.Options{MaxInFlight: 1, QueueDepth: -1, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(ctrl.Middleware(slow))
	defer srv.Close()    // waits for the parked request...
	defer close(release) // ...so the handler must be released first

	go http.Get(srv.URL + "/v1/sweep") // occupies the only slot
	<-started

	begin := time.Now()
	resp, err := http.Get(srv.URL + "/v1/sweep")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Fatalf("shed took %v, want fail-fast", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	var body admit.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("shed body not structured: %v (%+v)", err, body)
	}
}
