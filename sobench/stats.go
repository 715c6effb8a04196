package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for no samples. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// Latency and throughput are pooled over windows of the measured
// phases: a burst of host CPU steal that hits one window does not move
// the run's figure, and each of a run's measuring processes adds its
// own windows, so one process's luck with thread placement and memory
// layout does not either. A slowdown that lasts the whole run still
// moves it.
const (
	latencyWindow = 2 * time.Second
	rateWindow    = time.Second
	// minWindowOps is the fewest operations a latency window needs for
	// ten to lie beyond its p90. Operations too long for that —
	// suite_cold's passes — are pooled one by one instead.
	minWindowOps = 100
	// minRateOps is the fewest completions a rate window needs to
	// count; below it the phase reports its overall rate.
	minRateOps = 10
)

// phase is a measured phase's successful operations: each one's
// latency and the time into the phase it was due (open loop) or ended.
type phase struct {
	lat  []float64 // ms
	at   []float64 // s
	wall time.Duration
}

func (p *phase) add(lat, at time.Duration) {
	p.lat = append(p.lat, ms(lat))
	p.at = append(p.at, at.Seconds())
}

// windows returns, for each whole window of width w in the phase,
// the indices of its operations.
func (p *phase) windows(w time.Duration) [][]int {
	win := make([][]int, int(p.wall/w))
	for i, a := range p.at {
		if k := int(a / w.Seconds()); k < len(win) {
			win[k] = append(win[k], i)
		}
	}
	return win
}

// ops is what one measuring process reports, for the orchestrator to
// pool with the others.
type ops struct {
	Lat []float64 `json:"lat"` // every operation's latency, ms
	// Windows holds each latency window's p50 and p90; empty when the
	// operations are too long for minWindowOps per window.
	Windows [][2]float64 `json:"windows,omitempty"`
	// Rates holds the points answered per second in each rate window,
	// or the throughput phase's overall rate.
	Rates []float64 `json:"rates"`
}

// summarize condenses a latency phase and a throughput phase whose
// operations answer pointsPerOp points each. A window's rate is taken
// between its first and last completion, so it is not rounded to whole
// operations per window.
func summarize(latency, throughput *phase, pointsPerOp float64) *ops {
	o := &ops{Lat: latency.lat}
	for _, idx := range latency.windows(latencyWindow) {
		if len(idx) < minWindowOps {
			o.Windows = nil
			break
		}
		lat := make([]float64, len(idx))
		for j, i := range idx {
			lat[j] = latency.lat[i]
		}
		o.Windows = append(o.Windows, [2]float64{median(lat), percentile(lat, 0.9)})
	}
	for _, idx := range throughput.windows(rateWindow) {
		if len(idx) < minRateOps {
			o.Rates = nil
			break
		}
		first, last := throughput.at[idx[0]], throughput.at[idx[0]]
		for _, i := range idx {
			first, last = min(first, throughput.at[i]), max(last, throughput.at[i])
		}
		o.Rates = append(o.Rates, pointsPerOp*float64(len(idx)-1)/(last-first))
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{pointsPerOp * float64(len(throughput.lat)) / throughput.wall.Seconds()}
	}
	return o
}

// pool returns p50, p90 and throughput over every process's windows —
// or, when any process's operations outlast a window, over every
// operation.
func pool(procs []*ops) (p50, p90, rate float64) {
	var lat, p50s, p90s, rates []float64
	windowed := true
	for _, o := range procs {
		lat = append(lat, o.Lat...)
		rates = append(rates, o.Rates...)
		windowed = windowed && len(o.Windows) > 0
		for _, w := range o.Windows {
			p50s = append(p50s, w[0])
			p90s = append(p90s, w[1])
		}
	}
	if !windowed {
		return median(lat), percentile(lat, 0.9), median(rates)
	}
	return median(p50s), median(p90s), median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var spinSink uint64

// spinMS times a fixed pure-Go loop — the host-speed probe reported as
// host.spin_ms — and returns the median of five repetitions in
// milliseconds. It allocates nothing and touches no shared state, so
// it moves only with the host's CPU speed.
func spinMS() float64 {
	reps := make([]float64, 5)
	for r := range reps {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		reps[r] = ms(time.Since(start))
	}
	return median(reps)
}

// cpuTicks reads the host's steal and total CPU time, in clock ticks,
// from /proc/stat; both are 0 where it is not available. The share of
// steal over a run, host.steal_pct, is time the hypervisor gave this
// VM's CPUs to someone else.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
