// Command perfbench is the repository's benchmark. It runs one of four
// workloads against the public entry points of the simulator, the sweep
// engine, the fleet engine, the sweep daemon and the distributed fabric,
// checks every output for correctness, and prints the end-to-end metrics
// by name with their units. With --trace 1 it runs the workload a second
// time with spans around the calls into each layer and prints the
// per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds and execs this binary):
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every timing is host time. Simulated statistics (energy, misses, clock
// changes) are outputs: the sim_digest line hashes them so two commits can
// be compared exactly. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"clocksched"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// prints all of them; see README.md for what "job" and "serial" mean on
// each workload.
var endToEnd = []metricDef{
	{"cells_per_s", "1/s"},
	{"serial_cells_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// reportOnly are end-to-end metrics that exist on only some workloads, or
// that are zero on a clean run. They are printed as report lines; the
// error rate also rides in the result's attempted/failed counts.
var reportOnly = []metricDef{
	{"devices_per_s", "1/s"},
	{"job_ms_p99", "ms"},
	{"error_rate", "frac"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// engage reads 0 on it.
var perLayer = []metricDef{
	{"workload.build_us", "us"},
	{"sim.events_per_cell", "count"},
	{"sim.ns_per_event", "ns"},
	{"kernel.quanta_per_cell", "count"},
	{"cell.run_ms_p50", "ms"},
	{"cell.run_ms_p99", "ms"},
	{"policy.decide_ns", "ns"},
	{"power.segments_per_cell", "count"},
	{"power.retained_kb_per_cell", "KB"},
	{"metrics.deadlines_per_cell", "count"},
	{"metrics.reduce_us", "us"},
	{"runtime.alloc_kb_per_cell", "KB"},
	{"runtime.mallocs_per_cell", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"daq.integrate_us", "us"},
	{"daq.samples_per_cell", "count"},
	{"sweep.busy_frac", "frac"},
	{"sweep.peak_busy", "count"},
	{"sweep.ran", "count"},
	{"sweep.cached", "count"},
	{"sweep.failed", "count"},
	{"sweep.retried", "count"},
	{"codec.encode_us_per_cell", "us"},
	{"codec.decode_us_per_cell", "us"},
	{"codec.bytes_per_cell", "bytes"},
	{"cache.hit_ratio", "frac"},
	{"cache.hit_us", "us"},
	{"cache.miss_put_us", "us"},
	{"journal.commit_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.http_reqs_per_job", "count"},
	{"service.rejected", "count"},
	{"fabric.lease_ms", "ms"},
	{"fabric.lease_idle_ms", "ms"},
	{"fabric.polls_per_shard", "count"},
	{"fabric.shards", "count"},
	{"fabric.useful_frac", "frac"},
	{"fabric.merge_ms", "ms"},
	{"fleet.compile_ms", "ms"},
	{"fleet.skip_rate", "frac"},
	{"fleet.reduce_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// out is the directory scratch data and span files go under.
	out string
	// tiny shrinks every workload to its smallest shape and one
	// iteration, for the smoke test.
	tiny bool
	// corrupt flips one byte of the first result before the correctness
	// gate compares it, so the smoke test can prove the gate trips.
	corrupt bool
}

// env carries one invocation's inputs and accumulates its outputs.
type env struct {
	opt options
	// rng generates the workload's inputs; it is seeded from --seed only.
	rng *rand.Rand
	// dir is this invocation's scratch directory, removed at exit.
	dir string
	// nproc bounds every worker, client and peer count.
	nproc int

	e2e   map[string]float64
	layer map[string]float64
	lines []string

	attempted, failed int
	digest            string
	gate              []error
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(*env) error{
	"table2": runTable2,
	"fleet":  runFleet,
	"sweepd": runSweepd,
	"fabric": runFabric,
}

func main() {
	var opt options
	var seconds, trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: table2, fleet, sweepd or fabric")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&opt.out, "out", ".bench_build", "directory for scratch data and span files")
	flag.Parse()
	opt.seconds = time.Duration(seconds) * time.Second
	opt.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.text)
	fmt.Println(res.json)
	if !res.correct {
		os.Exit(1)
	}
}

// result is one invocation's printed output.
type result struct {
	text    string // human-readable report lines
	json    string // the final result line
	correct bool
}

// run executes one workload and renders its output. An error means the
// benchmark could not run at all; a failed correctness gate is reported
// through result.correct.
func run(opt options) (*result, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want table2, fleet, sweepd or fabric)", opt.workload)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.out, "run-"+opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		opt:   opt,
		rng:   rand.New(rand.NewPCG(opt.seed, 0x5eed0fbe)),
		dir:   dir,
		nproc: runtime.NumCPU(),
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	e.record()
	if err := fn(e); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	return e.render()
}

// record notes what the figures depend on: the host, the toolchain, the
// simulation version, the seed, and the filesystem under the scratch
// directory (the sweep daemon's journal fsyncs go there).
func (e *env) record() {
	e.note("run workload=%s seed=%d seconds=%d trace=%v", e.opt.workload, e.opt.seed,
		int(e.opt.seconds/time.Second), e.opt.trace)
	e.note("run num_cpu=%d gomaxprocs=%d go=%s sim_version=%s fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clocksched.SimVersion(), fsType(e.dir))
}

func (e *env) note(format string, args ...any) {
	e.lines = append(e.lines, fmt.Sprintf(format, args...))
}

// check records a correctness-gate failure; nil passes.
func (e *env) check(err error) {
	if err != nil {
		e.gate = append(e.gate, err)
	}
}

func (e *env) checkf(ok bool, format string, args ...any) {
	if !ok {
		e.gate = append(e.gate, fmt.Errorf(format, args...))
	}
}

// window is the measured window of one pass. A traced invocation splits
// --seconds between an untraced and a traced pass, so it takes as long as
// an untraced one.
func (e *env) window() time.Duration {
	if e.opt.trace {
		return e.opt.seconds / 2
	}
	return e.opt.seconds
}

// more reports whether a timed loop that has done n iterations since
// start should run another: until the window is spent, and at least min
// iterations. The tiny smoke shape stops at min.
func (e *env) more(start time.Time, n, min int) bool {
	if n < min {
		return true
	}
	return !e.opt.tiny && time.Since(start) < e.window()
}

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow boot does not move it.
const setupReps = 7

// timeSetup runs setup setupReps times (once when tiny), closing every
// instance but the last, and records the median as setup_s.
func timeSetup[T any](e *env, setup func() (T, error), closeFn func(T)) (T, error) {
	reps := setupReps
	if e.opt.tiny {
		reps = 1
	}
	var times []float64
	var last T
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < reps-1 {
			closeFn(v)
		}
		last = v
	}
	e.e2e["setup_s"] = median(times)
	return last, nil
}

// peakRSS records the process's high-water resident memory so far.
func (e *env) peakRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.e2e["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
}

func (e *env) render() (*result, error) {
	correct := len(e.gate) == 0
	var b strings.Builder
	for _, l := range e.lines {
		b.WriteString(l + "\n")
	}
	e.e2e["error_rate"] = 0
	if e.attempted > 0 {
		e.e2e["error_rate"] = float64(e.failed) / float64(e.attempted)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), reportOnly...) {
		if v, ok := e.e2e[m.name]; ok {
			fmt.Fprintf(&b, "e2e %s %s %s\n", m.name, fmtNum(v), m.unit)
		}
	}
	if e.opt.trace {
		for _, m := range perLayer {
			fmt.Fprintf(&b, "layer %s %s %s\n", m.name, fmtNum(e.layer[m.name]), m.unit)
		}
	}
	fmt.Fprintf(&b, "sim_digest %s\n", e.digest)
	for _, err := range e.gate {
		fmt.Fprintf(&b, "GATE FAILED: %v\n", err)
	}
	if correct {
		b.WriteString("gate ok")
	} else {
		b.WriteString("gate FAILED")
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	defs, vals := endToEnd, e.e2e
	if e.opt.trace {
		defs, vals = perLayer, e.layer
	}
	for _, m := range defs {
		metrics[m.name] = metricOut{vals[m.name], m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(e.attempted, 1), e.failed, metrics})
	if err != nil {
		return nil, fmt.Errorf("rendering the result (a metric is not finite?): %w\n%s", err, b.String())
	}
	return &result{text: b.String(), json: string(out), correct: correct}, nil
}

func fmtNum(v float64) string { return fmt.Sprintf("%.6g", v) }

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// freshDir makes a new empty directory under the invocation's scratch dir.
func (e *env) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix)
}

// fsType names the filesystem holding path, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// maybeCorrupt flips a byte of b when the corrupt option is set, once.
func (e *env) maybeCorrupt(b []byte) []byte {
	if !e.opt.corrupt || len(b) == 0 {
		return b
	}
	e.opt.corrupt = false
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0xff
	e.note("corrupting one result byte on purpose")
	return c
}

// ctx bounds a workload so a wedged server fails the run instead of
// hanging it past the benchmark's time limit.
func (e *env) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 150*time.Second)
}
