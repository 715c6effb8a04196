package metrics

import (
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// Decision is one per-point decision record: how a single sweep point
// was resolved, where, and at what cost. Records are produced by the
// engine's decision hook (exp.ObserveDecisions) and by the tiered
// evaluator, appended to a DecisionLog, and served as JSON by
// GET /v1/trace.
type Decision struct {
	// Seq is the record's position in the log since process start,
	// starting at 1; gaps never occur, so Seq - Capacity tells a reader
	// how much history the ring has dropped.
	Seq uint64 `json:"seq"`
	// UnixNanos is the wall-clock time the record was appended.
	UnixNanos int64 `json:"t_unix_ns"`
	// Key is the sweep point's key fingerprint (KeyFingerprint of the
	// engine memo key), stable across replicas for one configuration.
	Key string `json:"key"`
	// Source tells how the point was resolved: "memo", "store",
	// "remote", "simulated", "seeded", "evicted" (engine paths), or
	// "anchor", "surrogate" (tiered evaluator, point never reached the
	// engine).
	Source string `json:"source"`
	// Replica is the replica address that computed a "remote" point.
	Replica string `json:"replica,omitempty"`
	// Rank is the chosen replica's position in the key's rendezvous
	// order (0 = the key's home replica; >0 means failover).
	Rank int `json:"rank,omitempty"`
	// Retries counts same-replica retransmissions before success.
	Retries int `json:"retries,omitempty"`
	// QueueWaitSeconds is time spent waiting for a local worker slot.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// LatencySeconds is the total time from request to resolution.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
	// Err marks a point whose resolution returned a genuine error.
	Err bool `json:"err,omitempty"`
}

// KeyFingerprint condenses an engine memo key (68–75 bytes for a
// simulator point) into a short stable hex fingerprint for trace
// records and logs. Equal keys always produce equal fingerprints, on
// every replica.
func KeyFingerprint(key string) string {
	if key == "" {
		return ""
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return strconv.FormatUint(h.Sum64(), 16)
}

// DecisionLog is a bounded ring of Decision records: appends are O(1),
// the newest Capacity records are retained, and readers get a
// consistent snapshot. It is safe for concurrent use. The zero value
// is not usable; construct with NewDecisionLog.
type DecisionLog struct {
	mu    sync.Mutex
	ring  []Decision
	next  uint64 // total records ever appended
	clock func() time.Time
}

// NewDecisionLog returns a ring retaining the newest capacity records;
// capacity <= 0 selects 4096.
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &DecisionLog{ring: make([]Decision, capacity), clock: time.Now}
}

// Capacity reports how many records the ring retains.
func (l *DecisionLog) Capacity() int { return len(l.ring) }

// Total reports how many records have ever been appended.
func (l *DecisionLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Add appends one record, stamping its Seq and UnixNanos. The caller
// fills every other field.
func (l *DecisionLog) Add(d Decision) {
	l.mu.Lock()
	l.next++
	d.Seq = l.next
	d.UnixNanos = l.clock().UnixNano()
	l.ring[(l.next-1)%uint64(len(l.ring))] = d
	l.mu.Unlock()
}

// Last returns the newest n records in chronological order (oldest
// first). n <= 0 or n beyond the retained window returns everything
// retained.
func (l *DecisionLog) Last(n int) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	retained := l.next
	if ringCap := uint64(len(l.ring)); retained > ringCap {
		retained = ringCap
	}
	if n <= 0 || uint64(n) > retained {
		n = int(retained)
	}
	out := make([]Decision, 0, n)
	for i := l.next - uint64(n); i < l.next; i++ {
		out = append(out, l.ring[i%uint64(len(l.ring))])
	}
	return out
}
