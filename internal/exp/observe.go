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

// NewPointLatencyHistogram registers and returns the engine's
// per-point latency histogram (soproc_engine_point_latency_seconds):
// compute time for locally simulated points (queue wait excluded) and
// end-to-end time for routed points.
func NewPointLatencyHistogram(reg *metrics.Registry) *metrics.Histogram {
	return reg.Histogram("soproc_engine_point_latency_seconds",
		"per-point resolution latency: local compute time for simulated points, round-trip for routed points",
		PointLatencyBuckets)
}

// TraceRecord converts an engine decision into the trace record that
// GET /v1/trace serves and soproc -trace-out writes, with the memo key
// condensed by metrics.KeyFingerprint. Seq and UnixNanos are left to
// whoever appends the record.
func TraceRecord(d engine.Decision) metrics.Decision {
	return metrics.Decision{
		Key:              metrics.KeyFingerprint(d.Key),
		Source:           d.Source,
		Replica:          d.Replica,
		Rank:             d.Rank,
		Retries:          d.Retries,
		QueueWaitSeconds: d.QueueWait.Seconds(),
		LatencySeconds:   d.Latency.Seconds(),
		Err:              d.Err,
	}
}

// ObserveDecisions installs a decision hook on eng that appends every
// resolution to log as a TraceRecord (nil skips the trace) and
// observes computed-point latency into hist (nil skips the histogram).
// With both arguments nil the hook is removed.
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
			log.Add(TraceRecord(d))
		}
	})
}
