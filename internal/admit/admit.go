// Package admit is the serve tier's admission controller: the paper's
// "millions of users" story means a pod absorbs datacenter traffic
// without falling over, so the daemon needs explicit overload behavior
// instead of unbounded queueing. The controller combines three
// mechanisms, applied in order on every request:
//
//  1. Per-client token-bucket rate limiting, keyed by the
//     X-Soproc-Client header (falling back to the remote address), so
//     one greedy client cannot starve the rest. An empty rate disables
//     this stage.
//  2. A concurrency gate with a bounded admission queue: at most
//     MaxInFlight requests run at once; up to QueueDepth more wait per
//     lane; anything beyond that is shed immediately with 429 Too Many
//     Requests and a Retry-After hint — the saturated daemon fails
//     fast instead of accumulating goroutines.
//  3. Two priority lanes. Interactive requests (GET /v1/exp figure
//     fetches) are granted freed slots before Bulk requests (POST
//     /v1/sweep generations), so a human waiting on a figure preempts
//     a design-space search's backlog.
//
// Admitted requests optionally run under a per-request deadline
// (RequestTimeout) propagated via context, and Drain flips the
// controller into shutdown mode: everything new is refused with 503
// while in-flight requests finish. The Middleware method wires all of
// this in front of the serve handler; /healthz, /statsz, /metricsz and
// /v1/trace bypass admission so probes, scrapes, and trace reads still
// see a saturated or draining daemon.
package admit

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"scaleout/internal/metrics"
	"scaleout/internal/vclock"
)

// Lane is a request's priority class.
type Lane int

// The two lanes: Interactive requests (figure fetches a human is
// waiting on) are granted freed slots before Bulk requests (sweep
// generations a search harness can retry).
const (
	Interactive Lane = iota
	Bulk
	numLanes
)

// String names the lane for stats and error bodies.
func (l Lane) String() string {
	switch l {
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

// ClientHeader carries the caller's self-declared identity for
// per-client rate limiting; without it the client key is the remote
// host. A cluster coordinator sets it so a replica can tell coordinator
// traffic from direct clients.
const ClientHeader = "X-Soproc-Client"

// Options configures a Controller; the zero value of any field selects
// its documented default.
type Options struct {
	// Rate is the per-client steady-state admission rate in requests
	// per second; 0 disables rate limiting.
	Rate float64
	// Burst is the per-client token-bucket depth; 0 derives
	// max(1, ceil(2*Rate)).
	Burst int
	// MaxInFlight caps concurrently admitted requests; 0 selects
	// 4*GOMAXPROCS.
	MaxInFlight int
	// QueueDepth caps waiting requests per lane once MaxInFlight is
	// reached; beyond it requests are shed with 429. 0 selects 128;
	// negative disables queueing (full slots shed immediately).
	QueueDepth int
	// RequestTimeout is the per-request deadline applied by Middleware
	// to admitted requests' contexts; 0 leaves requests untimed.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with queue-full sheds; 0 selects
	// 1s. (Rate-limit sheds hint the bucket's actual refill time.)
	RetryAfter time.Duration
	// Clock injects a virtual clock for tests; nil selects the system
	// clock.
	Clock vclock.Clock
}

// Controller applies rate limiting, bounded queueing, and priority
// lanes to incoming requests. Construct with New; a Controller is safe
// for concurrent use.
type Controller struct {
	opts  Options
	clock vclock.Clock

	mu       sync.Mutex
	inflight int
	queues   [numLanes][]*waiter
	buckets  map[string]*bucket
	draining bool
	stats    statsCounters
}

// waiter is one request parked in the admission queue. grant hands it
// the slot (nil) or a terminal refusal; exactly one of grant/abandon
// wins, decided under Controller.mu.
type waiter struct {
	ch      chan error
	granted bool
}

// bucket is one client's token bucket; guarded by Controller.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// statsCounters accumulates under Controller.mu.
type statsCounters struct {
	admitted    [numLanes]int64
	queued      [numLanes]int64
	rateLimited int64
	shedFull    int64
	shedDrain   int64
	abandoned   int64
}

// New returns a controller with o's limits, applying defaults for zero
// fields.
func New(o Options) *Controller {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 128
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.Burst <= 0 {
		o.Burst = int(math.Max(1, math.Ceil(2*o.Rate)))
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	clk := o.Clock
	if clk == nil {
		clk = vclock.System{}
	}
	return &Controller{opts: o, clock: clk, buckets: make(map[string]*bucket)}
}

// Error is a refused admission: the HTTP status to return and, when
// positive, the Retry-After hint. It implements error so Admit callers
// outside the middleware can propagate it.
type Error struct {
	// Status is 429 (rate-limited or queue full) or 503 (draining, or
	// the request's deadline expired while queued).
	Status int
	// Message is the human-readable reason, returned in the body.
	Message string
	// RetryAfter, when positive, is the client's resubmission hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// Admit asks for an execution slot in lane for client, blocking in the
// bounded queue when the controller is at capacity. On success the
// returned release must be called exactly once when the request
// finishes; on refusal it returns a nil release and an *Error carrying
// the status and Retry-After hint. A ctx that expires while queued
// refuses with 503.
func (c *Controller) Admit(ctx context.Context, lane Lane, client string) (release func(), err error) {
	if lane < 0 || lane >= numLanes {
		lane = Bulk
	}
	c.mu.Lock()
	if c.draining {
		c.stats.shedDrain++
		c.mu.Unlock()
		return nil, &Error{Status: http.StatusServiceUnavailable, Message: "draining: not accepting new work"}
	}
	if wait, limited := c.takeTokenLocked(client); limited {
		c.stats.rateLimited++
		c.mu.Unlock()
		return nil, &Error{
			Status:     http.StatusTooManyRequests,
			Message:    fmt.Sprintf("client %q over rate limit (%.3g req/s)", client, c.opts.Rate),
			RetryAfter: wait,
		}
	}
	if c.inflight < c.opts.MaxInFlight {
		c.inflight++
		c.stats.admitted[lane]++
		c.mu.Unlock()
		return c.release, nil
	}
	if len(c.queues[lane]) >= c.opts.QueueDepth {
		c.stats.shedFull++
		c.mu.Unlock()
		return nil, &Error{
			Status:     http.StatusTooManyRequests,
			Message:    fmt.Sprintf("%s admission queue full (%d waiting)", lane, c.opts.QueueDepth),
			RetryAfter: c.opts.RetryAfter,
		}
	}
	w := &waiter{ch: make(chan error, 1)}
	c.queues[lane] = append(c.queues[lane], w)
	c.stats.queued[lane]++
	c.mu.Unlock()

	select {
	case err := <-w.ch:
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.admitted[lane]++
		c.mu.Unlock()
		return c.release, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation and won under the lock:
			// the slot is ours to give back.
			c.mu.Unlock()
			c.release()
		} else {
			c.queues[lane] = removeWaiter(c.queues[lane], w)
			c.stats.abandoned++
			c.mu.Unlock()
		}
		return nil, &Error{Status: http.StatusServiceUnavailable, Message: "abandoned admission queue: " + ctx.Err().Error()}
	}
}

func removeWaiter(q []*waiter, w *waiter) []*waiter {
	for i, x := range q {
		if x == w {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// release returns a slot, handing it to the longest-waiting
// interactive request first, then bulk — the priority inversion the
// lanes exist to prevent.
func (c *Controller) release() {
	c.mu.Lock()
	for lane := Interactive; lane < numLanes; lane++ {
		if len(c.queues[lane]) > 0 {
			w := c.queues[lane][0]
			c.queues[lane] = c.queues[lane][1:]
			w.granted = true
			w.ch <- nil
			c.mu.Unlock()
			return
		}
	}
	c.inflight--
	c.mu.Unlock()
}

// takeTokenLocked consumes one token from client's bucket, reporting
// (wait, true) when the bucket is empty — wait is the time until the
// next token. Rate 0 always admits. Caller holds c.mu.
func (c *Controller) takeTokenLocked(client string) (time.Duration, bool) {
	if c.opts.Rate <= 0 {
		return 0, false
	}
	now := c.clock.Now()
	b := c.buckets[client]
	if b == nil {
		c.pruneBucketsLocked(now)
		b = &bucket{tokens: float64(c.opts.Burst), last: now}
		c.buckets[client] = b
	}
	b.tokens = math.Min(float64(c.opts.Burst), b.tokens+now.Sub(b.last).Seconds()*c.opts.Rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, false
	}
	wait := time.Duration((1 - b.tokens) / c.opts.Rate * float64(time.Second))
	return wait, true
}

// pruneBucketsLocked drops buckets refilled to burst long ago so the
// per-client map cannot grow without bound under address churn. Caller
// holds c.mu.
func (c *Controller) pruneBucketsLocked(now time.Time) {
	if len(c.buckets) < 1024 {
		return
	}
	for k, b := range c.buckets {
		idle := now.Sub(b.last).Seconds()
		if b.tokens+idle*c.opts.Rate >= float64(c.opts.Burst) && idle > 60 {
			delete(c.buckets, k)
		}
	}
}

// Drain flips the controller into shutdown mode: every queued request
// is refused with 503 immediately (so the HTTP server's drain isn't
// held up by parked waiters) and every new Admit refuses the same way,
// while already-admitted requests run to completion. Drain is
// idempotent.
func (c *Controller) Drain() {
	c.mu.Lock()
	c.draining = true
	for lane := range c.queues {
		for _, w := range c.queues[lane] {
			w.granted = true
			w.ch <- &Error{Status: http.StatusServiceUnavailable, Message: "draining: not accepting new work"}
			c.stats.shedDrain++
		}
		c.queues[lane] = nil
	}
	c.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// LaneStats is one lane's slice of a Stats snapshot.
type LaneStats struct {
	// Admitted counts requests granted a slot in this lane; Queued the
	// subset that waited for one; Depth the requests waiting right now.
	Admitted int64 `json:"admitted" metric:"soproc_admit_lane_admitted_total" help:"requests granted a slot, per lane"`
	Queued   int64 `json:"queued" metric:"soproc_admit_lane_queued_total" help:"admitted requests that waited in the queue first, per lane"`
	Depth    int   `json:"depth" metric:"soproc_admit_lane_depth" help:"requests waiting in the queue right now, per lane"`
}

// Stats is a point-in-time snapshot of the controller's admission
// traffic; it is the /statsz "admit" section.
type Stats struct {
	// Admitted counts requests granted a slot; InFlight the admitted
	// requests currently running.
	Admitted int64 `json:"admitted" metric:"soproc_admit_admitted_total" help:"requests granted an execution slot (all lanes)"`
	InFlight int   `json:"in_flight" metric:"soproc_admit_in_flight_requests" help:"admitted requests currently running"`
	// RateLimited counts sheds by a client's empty token bucket;
	// ShedQueueFull sheds by a full admission queue (both 429);
	// ShedDraining refusals during drain (503); Abandoned queue waits
	// given up by deadline or disconnect.
	RateLimited   int64 `json:"rate_limited" metric:"soproc_admit_rate_limited_total" help:"requests shed by a client's empty token bucket (429)"`
	ShedQueueFull int64 `json:"shed_queue_full" metric:"soproc_admit_shed_queue_full_total" help:"requests shed by a full admission queue (429)"`
	ShedDraining  int64 `json:"shed_draining" metric:"soproc_admit_shed_draining_total" help:"requests refused during drain (503)"`
	Abandoned     int64 `json:"abandoned" metric:"soproc_admit_abandoned_total" help:"queue waits given up by deadline or disconnect"`
	// Lanes maps lane name ("interactive", "bulk") to its counters.
	Lanes map[string]LaneStats `json:"lanes" metric:"lane"`
	// Clients is the number of tracked per-client rate buckets.
	Clients int `json:"clients" metric:"soproc_admit_clients" help:"tracked per-client rate buckets"`
	// Draining reports shutdown mode.
	Draining bool `json:"draining" metric:"soproc_admit_draining" help:"1 while the controller is draining"`
}

// RegisterMetrics registers the Stats counters on reg as the
// soproc_admit_* families, read at scrape time.
func (c *Controller) RegisterMetrics(reg *metrics.Registry) { metrics.RegisterStats(reg, c.Stats) }

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		InFlight:      c.inflight,
		RateLimited:   c.stats.rateLimited,
		ShedQueueFull: c.stats.shedFull,
		ShedDraining:  c.stats.shedDrain,
		Abandoned:     c.stats.abandoned,
		Lanes:         make(map[string]LaneStats, numLanes),
		Clients:       len(c.buckets),
		Draining:      c.draining,
	}
	for lane := Interactive; lane < numLanes; lane++ {
		st.Admitted += c.stats.admitted[lane]
		st.Lanes[lane.String()] = LaneStats{
			Admitted: c.stats.admitted[lane],
			Queued:   c.stats.queued[lane],
			Depth:    len(c.queues[lane]),
		}
	}
	return st
}

// ErrorBody is the JSON body of a refused request (429/503) and of the
// serve layer's structured 413; Retry-After mirrors the header of the
// same name.
type ErrorBody struct {
	// Error is the human-readable refusal reason.
	Error string `json:"error"`
	// RetryAfterSeconds, when positive, hints when to resubmit.
	RetryAfterSeconds int64 `json:"retry_after_seconds,omitempty"`
}

// WriteError writes a structured refusal: JSON ErrorBody plus the
// Retry-After header when the error carries a hint. Exposed so the
// serve layer's 413 path and tests produce the same shape.
func WriteError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	var secs int64
	if retryAfter > 0 {
		secs = int64(math.Ceil(retryAfter.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: msg, RetryAfterSeconds: secs})
}

// LaneFor classifies a request: GET /v1/exp and /v1/experiments are
// Interactive (a figure a caller is blocked on), everything else —
// /v1/sweep above all — is Bulk.
func LaneFor(r *http.Request) Lane {
	if r.Method == http.MethodGet &&
		(strings.HasPrefix(r.URL.Path, "/v1/exp/") || r.URL.Path == "/v1/experiments") {
		return Interactive
	}
	return Bulk
}

// ClientKey identifies the caller for rate limiting: the ClientHeader
// value when present, else the remote host without its ephemeral port.
func ClientKey(r *http.Request) string {
	if id := r.Header.Get(ClientHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Middleware wires the controller in front of next: /healthz and
// /statsz — with /metricsz and /v1/trace, the observability pair —
// bypass admission (probes and monitoring must see a saturated
// daemon), every other request is admitted through its lane and — when
// RequestTimeout is set — runs under a per-request deadline propagated
// via context. Refusals are structured ErrorBody responses with
// Retry-After where applicable.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/statsz", "/metricsz", "/v1/trace":
			// Probes, scrapes, and trace reads bypass admission: a
			// saturated or draining daemon must stay observable.
			next.ServeHTTP(w, r)
			return
		}
		release, err := c.Admit(r.Context(), LaneFor(r), ClientKey(r))
		if err != nil {
			ae, ok := err.(*Error)
			if !ok {
				ae = &Error{Status: http.StatusServiceUnavailable, Message: err.Error()}
			}
			WriteError(w, ae.Status, ae.Message, ae.RetryAfter)
			return
		}
		defer release()
		if c.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), c.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}
