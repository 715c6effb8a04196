package exp

import (
	"scaleout/internal/exp/engine"
	"scaleout/internal/metrics"
)

// PointLatencyBuckets are the histogram bucket upper bounds (seconds)
// for per-point resolution latency: simulator points land in the
// 0.5ms–100ms range, remote points add a network round-trip, and the
// top buckets catch pathological queueing.
var PointLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RegisterEngineMetrics registers eng's counters and gauges on reg
// under the soproc_engine_* namespace. Values are read from
// eng.Stats() at scrape time, so the engine's hot path gains no new
// writes.
func RegisterEngineMetrics(reg *metrics.Registry, eng *Engine) {
	reg.CounterFunc("soproc_engine_points_total",
		"points computed by this engine's local worker pool (memo misses)",
		func() float64 { return float64(eng.Stats().Misses) })
	reg.CounterFunc("soproc_engine_memo_hits_total",
		"points served from the in-memory memo, including waits on in-flight duplicates",
		func() float64 { return float64(eng.Stats().Hits) })
	reg.CounterFunc("soproc_engine_memo_evictions_total",
		"memo entries discarded to stay within capacity",
		func() float64 { return float64(eng.Stats().Evictions) })
	reg.CounterFunc("soproc_engine_store_hits_total",
		"memo misses answered by the persistent result store",
		func() float64 { return float64(eng.Stats().StoreHits) })
	reg.CounterFunc("soproc_engine_remote_points_total",
		"points resolved by the installed router on a cluster replica",
		func() float64 { return float64(eng.Stats().Remote) })
	reg.GaugeFunc("soproc_engine_in_flight_points",
		"computations executing right now",
		func() float64 { return float64(eng.Stats().InFlight) })
	reg.GaugeFunc("soproc_engine_memo_entries",
		"resident memo entries",
		func() float64 { return float64(eng.Stats().MemoSize) })
	reg.GaugeFunc("soproc_engine_memo_capacity_entries",
		"memo resident-entry bound (0 = unbounded)",
		func() float64 { return float64(eng.Stats().MemoCapacity) })
	reg.GaugeFunc("soproc_engine_worker_slots",
		"worker-pool size",
		func() float64 { return float64(eng.Workers()) })
}

// NewPointLatencyHistogram registers and returns the engine's
// per-point latency histogram (soproc_engine_point_latency_seconds):
// compute time for locally simulated points (queue wait excluded) and
// end-to-end time for routed points.
func NewPointLatencyHistogram(reg *metrics.Registry) *metrics.Histogram {
	return reg.Histogram("soproc_engine_point_latency_seconds",
		"per-point resolution latency: local compute time for simulated points, round-trip for routed points",
		PointLatencyBuckets)
}

// ObserveDecisions installs a decision hook on eng that appends every
// resolution to log (nil skips the trace) and observes computed-point
// latency into hist (nil skips the histogram). Memo keys are condensed
// with metrics.KeyFingerprint before they enter a trace record. With
// both arguments nil the hook is removed.
func ObserveDecisions(eng *Engine, log *metrics.DecisionLog, hist *metrics.Histogram) {
	if log == nil && hist == nil {
		eng.SetDecisionHook(nil)
		return
	}
	eng.SetDecisionHook(func(d engine.Decision) {
		if hist != nil && !d.Err {
			switch d.Source {
			case "simulated":
				hist.Observe((d.Latency - d.QueueWait).Seconds())
			case "remote":
				hist.Observe(d.Latency.Seconds())
			}
		}
		if log != nil {
			log.Add(metrics.Decision{
				Key:              metrics.KeyFingerprint(d.Key),
				Source:           d.Source,
				Replica:          d.Replica,
				Rank:             d.Rank,
				Retries:          d.Retries,
				QueueWaitSeconds: d.QueueWait.Seconds(),
				LatencySeconds:   d.Latency.Seconds(),
				Err:              d.Err,
			})
		}
	})
}
