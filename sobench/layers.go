package main

import (
	"fmt"
	"sort"
)

// perLayer is every metric a traced run prints, with its unit. Each
// workload sets the ones its layers exercise; the rest stay 0 — a
// layer the workload bypasses. README.md maps each one to the
// end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"sim.points", "count/op"},
	{"sim.structural_points", "count/op"},
	{"sim.busy_s", "s"},
	{"sim.point_p50_ms", "ms"},
	{"sim.structural_point_p50_ms", "ms"},
	{"sim.mcycles_per_s", "mcycles/s"},
	{"engine.hits", "count/op"},
	{"engine.misses", "count/op"},
	{"engine.store_hits", "count/op"},
	{"engine.remote", "count/op"},
	{"engine.evictions", "count/op"},
	{"engine.hit_ratio", "ratio"},
	{"engine.queue_wait_p90_ms", "ms"},
	{"engine.resolve_p50_us", "us"},
	{"engine.idle_worker_s", "s"},
	{"exp.key_us", "us"},
	{"exp.payload_us", "us"},
	{"store.open_ms", "ms"},
	{"store.loads", "count/op"},
	{"store.load_p50_us", "us"},
	{"store.disk_hit_ratio", "ratio"},
	{"store.saves", "count/op"},
	{"store.save_p50_us", "us"},
	{"store.bytes", "B"},
	{"figures.self_ms", "ms"},
	{"figures.render_ms", "ms"},
	{"tier.scored", "count/op"},
	{"tier.escalation_rate", "ratio"},
	{"serve.coord_p50_ms", "ms"},
	{"serve.replica_p50_ms", "ms"},
	{"serve.req_bytes_per_point", "B/point"},
	{"serve.resp_bytes_per_point", "B/point"},
	{"serve.non2xx", "count/op"},
	{"admit.wait_p90_ms", "ms"},
	{"admit.admitted", "count/op"},
	{"admit.shed", "count/op"},
	{"cluster.routed", "count/op"},
	{"cluster.posts", "count/op"},
	{"cluster.points_per_post", "points/post"},
	{"cluster.route_p50_ms", "ms"},
	{"cluster.post_rtt_p50_ms", "ms"},
	{"cluster.window_wait_p50_ms", "ms"},
	{"cluster.retries", "count/op"},
	{"cluster.failovers", "count/op"},
	{"cluster.fallbacks", "count/op"},
	{"cluster.unroutable", "count/op"},
	{"metrics.scrape_ms", "ms"},
	{"metrics.scrape_bytes", "B"},
	{"trace.overhead_pct", "%"},
	{"gen.late_p90_ms", "ms"},
	{"gen.p99_ms", "ms"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_per_op", "gc/op"},
	{"host.spin_ms", "ms"},
}

// layers sets every per-layer metric to 0 with its unit.
func layers(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
}

// maxTraceSpans bounds the span file; a traced suite_warm run records
// a few hundred thousand spans, and the first stretch shows the same
// structure.
const maxTraceSpans = 100_000

// writeTrace writes the earliest maxTraceSpans spans to path.
func writeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	if err := writeChrome(path, spans); err != nil {
		return err
	}
	fmt.Printf("sobench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
