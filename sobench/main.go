// Command sobench is the repository's end-to-end benchmark. It drives
// the program only through its Go APIs and loopback HTTP, from one
// process with GOMAXPROCS = the host's CPU count, and checks every
// output it measures.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash sobench/run.sh --workload suite_cold --seed 1 --seconds 24 --trace 0
//
// Workloads:
//
//	suite_cold     `soproc -all -store` on an empty store, pass after pass
//	suite_warm     `soproc -all -store` on the populated store
//	sweep_cluster  16-point /v1/sweep requests to a coordinator over
//	               three replicas, open loop then closed loop
//
// With --trace 0 the last stdout line is one JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics and
// the run writes a Chrome trace-event file of its spans. See README.md.
//
// The command runs as an orchestrator that starts the workload in three
// child processes of its own binary, one after another. Each child sets
// up, is timed from its start to the end of its set-up, and measures a
// third of --seconds. setup_s is the median set-up time, so work moved
// into process start-up or set-up shows in it; the other metrics pool
// the three children's measurements. A traced run uses one child.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// readyLine is what a child prints on stdout once its set-up is done.
const readyLine = "sobench: ready"

// procs is how many child processes an untraced run sets up and
// measures in. A traced run uses one.
const procs = 3

// options are the flags shared by the orchestrator and its children.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory for stores and span files
	traceOut string // span file path (traced runs)
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a child's report to the orchestrator, and the run's
// result; the first four fields are the benchmark's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics,omitempty"`
	// Ops is an untraced child's measurement, pooled by the
	// orchestrator into the end-to-end metrics.
	Ops *ops `json:"ops,omitempty"`
	// Diag holds noise diagnostics that are reported but never gated.
	Diag map[string]float64 `json:"diag,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: suite_cold | suite_warm | sweep_cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (request draws)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	isChild := flag.Bool("child", false, "run as a child process of the orchestrator")
	flag.StringVar(&o.work, "work", "", "scratch directory (default .bench_build/work-<pid>)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	o.trace = *traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sobench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, *traceFlag, o.seconds)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}

	if *isChild {
		if err := child(o); err != nil {
			fmt.Fprintln(os.Stderr, "sobench:", err)
			os.Exit(1)
		}
		return
	}
	res, diag, err := orchestrate(o, procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sobench:", err)
		os.Exit(1)
	}
	diagLine, _ := json.Marshal(diag)
	fmt.Println("sobench: diagnostics", string(diagLine))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(out))
}

// workload is one benchmark workload inside a child process.
type workload interface {
	// setup builds everything the measured phase needs.
	setup() error
	// measure runs the measured phase and reports its metrics.
	measure() (*result, error)
	// close stops what setup started.
	close()
}

var workloads = map[string]func(options) workload{
	"suite_cold":    func(o options) workload { return &suite{o: o} },
	"suite_warm":    func(o options) workload { return &suite{o: o, warm: true} },
	"sweep_cluster": func(o options) workload { return &sweepCluster{o: o} },
}

// child runs one workload: set-up, the ready line, the measured phase
// and the result line.
func child(o options) error {
	if o.work == "" {
		return errors.New("-child needs -work")
	}
	w := workloads[o.workload](o)
	if err := w.setup(); err != nil {
		return fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	fmt.Println(readyLine)
	res, err := w.measure()
	w.close()
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// orchestrate runs n children (one when traced), each measuring its
// share of o.seconds, and returns the run's result and its noise
// diagnostics.
func orchestrate(o options, n int) (*result, map[string]float64, error) {
	if o.trace {
		n = 1
	}
	if o.work == "" {
		o.work = filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(o.work)

	spinStart := spinMS()
	steal0, total0 := cpuTicks()
	share := o
	share.seconds = o.seconds / float64(n)
	var setupS, rssMB []float64
	var children []*result
	for i := 0; i < n; i++ {
		d, r, rss, err := runChild(share, filepath.Join(o.work, strconv.Itoa(i)))
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, d.Seconds())
		rssMB = append(rssMB, rss)
		children = append(children, r)
	}
	steal1, total1 := cpuTicks()
	spinEnd := spinMS()

	diag := map[string]float64{
		"host.spin_ms":       (spinStart + spinEnd) / 2,
		"host.spin_start_ms": spinStart,
		"host.spin_end_ms":   spinEnd,
	}
	if total1 > total0 {
		diag["host.steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if o.trace {
		res := children[0]
		for k, v := range res.Diag {
			diag[k] = v
		}
		res.set("host.spin_ms", diag["host.spin_ms"], "ms")
		return res, diag, nil
	}

	res := &result{Correct: true}
	var measured []*ops
	childDiag := map[string][]float64{}
	for _, c := range children {
		res.Correct = res.Correct && c.Correct
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		measured = append(measured, c.Ops)
		for k, v := range c.Diag {
			childDiag[k] = append(childDiag[k], v)
		}
	}
	for k, vs := range childDiag {
		diag[k] = median(vs)
	}
	p50, p90, rate := pool(measured)
	res.set("setup_s", median(setupS), "s")
	res.set("points_per_s", rate, "1/s")
	res.set("p50_ms", p50, "ms")
	res.set("p90_ms", p90, "ms")
	res.set("peak_rss_mb", median(rssMB), "MB")
	return res, diag, nil
}

// runChild starts one child, times it from start to its ready line,
// waits for it to exit, and returns its result and peak resident
// memory (from its rusage).
func runChild(o options, dir string) (setup time.Duration, res *result, rssMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	cmd := exec.Command(self,
		"-child", // first: see TestMain
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-work", dir,
		"-trace-out", o.traceOut)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var last string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine:
			setup = time.Since(start)
		case len(line) > 0 && line[0] == '{':
			last = line
		default:
			fmt.Println(line)
		}
	}
	io.Copy(io.Discard, stdout)
	if werr := cmd.Wait(); werr != nil {
		return 0, nil, 0, fmt.Errorf("child: %w", werr)
	}
	if setup == 0 || last == "" {
		return 0, nil, 0, errors.New("child exited without a result")
	}
	res = &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return 0, nil, 0, fmt.Errorf("child result: %w", err)
	}
	if !o.trace && res.Ops == nil {
		return 0, nil, 0, errors.New("child result holds no measurement")
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return setup, res, rssMB, nil
}
