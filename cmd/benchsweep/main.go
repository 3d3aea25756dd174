// Command benchsweep times the full Table 2 measurement grid — five
// policies × ten seeds of the 60-second MPEG workload — through the public
// Sweep API at a ladder of worker counts (1, 2, 4, NumCPU, plus -workers
// if it names another count), verifies every merge against the serial
// baseline, and records per-count throughput to a JSON file for the
// repo's benchmark history.
//
// Every leg records the GOMAXPROCS and CPU count it actually ran with, and
// a single-CPU host cannot publish multi-worker "speedups": those legs are
// annotated as concurrency-overhead measurements and any apparent speedup
// on one CPU fails the run rather than entering the benchmark history.
//
// Usage:
//
//	benchsweep                     # BENCH_sweep.json, 1/2/4/NumCPU ladder
//	benchsweep -workers 8 -out BENCH_sweep.json
//	benchsweep -guard              # serial Table 2 and fleet regression
//	                               # check against the committed
//	                               # BENCH_sweep.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/fleet"
	"clocksched/internal/paper"
	"clocksched/internal/service"
)

// fabricLeg times the reference grid through the fabric coordinator over n
// in-process sweepd peers — real HTTP dispatch over loopback, leases,
// merge — and verifies the merged cells against the serial baseline.
func fabricLeg(n int, serial *clocksched.SweepResult, serialTime time.Duration) (run, error) {
	workers := max(1, runtime.NumCPU()/n)
	var urls []string
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "benchsweep-peer-*")
		if err != nil {
			return run{}, err
		}
		defer os.RemoveAll(dir)
		s, err := service.New(service.Config{DataDir: dir, Workers: workers, MaxActiveJobs: 2})
		if err != nil {
			return run{}, err
		}
		hs := httptest.NewServer(s)
		defer hs.Close()
		defer s.Close()
		urls = append(urls, hs.URL)
	}
	coordDir, err := os.MkdirTemp("", "benchsweep-coord-*")
	if err != nil {
		return run{}, err
	}
	defer os.RemoveAll(coordDir)
	co, err := fabric.New(fabric.Config{Peers: urls, Dir: coordDir, LocalWorkers: workers})
	if err != nil {
		return run{}, err
	}

	start := time.Now()
	res, err := co.Run(context.Background(), clocksched.NewSweepSpec(paper.Table2Config(1)))
	legTime := time.Since(start)
	if err != nil {
		return run{}, err
	}
	identical := len(serial.Cells) == len(res.Cells)
	for i := range serial.Cells {
		if !identical {
			break
		}
		identical = reflect.DeepEqual(serial.Cells[i].Result, res.Cells[i].Result)
	}
	leg := run{
		Workers:     n * workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seconds:     legTime.Seconds(),
		Identical:   identical,
		FabricPeers: n,
	}
	if legTime > 0 {
		leg.CellsPerSec = float64(len(res.Cells)) / legTime.Seconds()
		leg.Speedup = serialTime.Seconds() / legTime.Seconds()
	}
	return leg, nil
}

// fleetSpec is the population the fleet leg times: a fixed-seed 500-device
// default mix under the best adaptive policy, the deadline scheduler, and a
// pinned 59 MHz constant — the last guaranteeing the feasibility pre-pass
// has real skips to price.
func fleetSpec() (fleet.Spec, error) {
	spec := fleet.NewSpec(500, 7)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, ref := range []struct {
		name   string
		params map[string]float64
	}{
		{"past-peg-peg", nil},
		{"deadline", nil},
		{"constant", map[string]float64{"mhz": 59, "low_voltage": 1}},
	} {
		p, err := clocksched.NewPolicy(ref.name, ref.params)
		if err != nil {
			return fleet.Spec{}, err
		}
		spec.Policies = append(spec.Policies, p)
	}
	return spec, nil
}

// fleetPlan compiles the fleet leg's population.
func fleetPlan() (fleet.Spec, *fleet.Plan, error) {
	spec, err := fleetSpec()
	if err != nil {
		return fleet.Spec{}, nil, err
	}
	plan, err := spec.Compile()
	return spec, plan, err
}

// timeFleet runs plan through the fleet engine on the given number of
// workers and returns the summary with its wall-clock time. Like
// timeSerial it runs an untimed warmup pass first.
func timeFleet(plan *fleet.Plan, workers int) (*fleet.Population, time.Duration, error) {
	cfg := fleet.RunConfig{Workers: workers}
	if _, err := fleet.RunPlan(context.Background(), plan, cfg); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sum, err := fleet.RunPlan(context.Background(), plan, cfg)
	return sum, time.Since(start), err
}

// fleetLegs compiles the fleet population once and times it through the
// fleet engine serially and at NumCPU workers. It returns one leg for
// each, recording cells/sec, devices/sec and the feasibility-skip rate of
// the pre-pass; the NumCPU leg also records its speedup over the serial
// leg and whether its population summary is byte-identical to it.
func fleetLegs() ([]run, error) {
	spec, plan, err := fleetPlan()
	if err != nil {
		return nil, err
	}
	pairings := spec.Devices * len(spec.Policies)
	serial, serialTime, err := timeFleet(plan, 1)
	if err != nil {
		return nil, err
	}
	par, parTime, err := timeFleet(plan, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	leg := func(workers int, legTime time.Duration, identical bool) run {
		r := run{
			Workers:      workers,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			NumCPU:       runtime.NumCPU(),
			Seconds:      legTime.Seconds(),
			Identical:    identical,
			FleetDevices: spec.Devices,
			SkipRate:     float64(len(plan.Skips)) / float64(pairings),
		}
		if legTime > 0 {
			r.CellsPerSec = float64(len(plan.Cells)) / legTime.Seconds()
			r.DevicesPerSec = float64(spec.Devices) / legTime.Seconds()
			r.Speedup = serialTime.Seconds() / legTime.Seconds()
		}
		return r
	}
	return []run{
		leg(1, serialTime, true),
		leg(runtime.NumCPU(), parTime, serial.Render() == par.Render()),
	}, nil
}

// run is one timed leg of the ladder.
type run struct {
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Seconds     float64 `json:"seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"identical"`
	// FabricPeers marks a distributed-fabric leg: the grid was sharded
	// across this many in-process sweepd peers through the fabric
	// coordinator instead of the plain worker pool.
	FabricPeers int `json:"fabric_peers,omitempty"`
	// FleetDevices marks a fleet-population leg: this many seeded device
	// sessions compiled and reduced through internal/fleet, with
	// DevicesPerSec the population throughput and SkipRate the fraction
	// of device×policy pairings the feasibility pre-pass removed before
	// simulation.
	FleetDevices  int     `json:"fleet_devices,omitempty"`
	DevicesPerSec float64 `json:"devices_per_sec,omitempty"`
	SkipRate      float64 `json:"skip_rate,omitempty"`
	// Note flags legs whose Speedup must not be read as parallel scaling
	// (multi-worker legs on a single-CPU host).
	Note string `json:"note,omitempty"`
}

// report is the schema of BENCH_sweep.json.
type report struct {
	Grid              string  `json:"grid"`
	SimVersion        string  `json:"sim_version"`
	Cells             int     `json:"cells"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	SerialSeconds     float64 `json:"serial_seconds"`
	SerialCellsPerSec float64 `json:"serial_cells_per_sec"`
	Note              string  `json:"note,omitempty"`
	Runs              []run   `json:"runs"`
}

const singleCPUNote = "single-CPU host: multi-worker legs measure scheduling overhead, not parallel speedup"

// ladder is the deduplicated, ascending worker-count schedule.
func ladder(extra int) []int {
	counts := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	if extra > 0 {
		counts[extra] = true
	}
	var out []int
	for w := range counts {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// timeSerial runs the reference grid on one worker and returns the result
// with its wall-clock time. An untimed warmup pass runs first so the timed
// figure does not carry first-touch costs (heap growth, page faults) that
// would make every later leg look spuriously faster than the baseline.
func timeSerial() (*clocksched.SweepResult, time.Duration, error) {
	cfg := paper.Table2Config(1)
	cfg.Workers, cfg.FailFast = 1, true
	if _, err := clocksched.Sweep(context.Background(), cfg); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := clocksched.Sweep(context.Background(), cfg)
	return res, time.Since(start), err
}

// guard compares current serial throughput against the committed
// baseline, failing when it drops below (1 − tolerance) of the recorded
// figure. It guards two cell shapes: the long Table 2 cells, where the
// simulation hot loop dominates, and the fleet leg's short cells, where
// per-cell fixed costs (workload set-up, trace install, the pool's
// hand-off) dominate. It is the `make bench-guard` tier: cheap enough for
// every check run, loose enough not to trip on machine noise, tight
// enough to catch a regression that halves throughput.
func guard(baselinePath string, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	want := base.SerialCellsPerSec
	if want == 0 && base.SerialSeconds > 0 {
		// Baselines written before serial_cells_per_sec existed.
		want = float64(base.Cells) / base.SerialSeconds
	}
	if want <= 0 {
		return fmt.Errorf("baseline %s has no serial throughput figure", baselinePath)
	}
	var wantFleet float64
	for _, r := range base.Runs {
		if r.FleetDevices > 0 && r.Workers == 1 {
			wantFleet = r.CellsPerSec
		}
	}
	if wantFleet <= 0 {
		return fmt.Errorf("baseline %s has no serial fleet leg: rerun `make bench-sweep`", baselinePath)
	}
	if base.SimVersion != "" && base.SimVersion != clocksched.SimVersion() {
		fmt.Printf("bench-guard: note: baseline recorded under %s, current %s\n",
			base.SimVersion, clocksched.SimVersion())
	}

	res, serialTime, err := timeSerial()
	if err != nil {
		return fmt.Errorf("serial grid: %w", err)
	}
	_, plan, err := fleetPlan()
	if err != nil {
		return fmt.Errorf("fleet plan: %w", err)
	}
	_, fleetTime, err := timeFleet(plan, 1)
	if err != nil {
		return fmt.Errorf("serial fleet: %w", err)
	}
	var errs []error
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"serial", float64(len(res.Cells)) / serialTime.Seconds(), want},
		{"serial fleet", float64(len(plan.Cells)) / fleetTime.Seconds(), wantFleet},
	} {
		floor := c.want * (1 - tolerance)
		status := "ok"
		if c.got < floor {
			status = "REGRESSION"
			errs = append(errs, fmt.Errorf("%s throughput %.1f cells/s below floor %.1f (baseline %.1f): rerun `make bench-sweep` if intentional",
				c.name, c.got, floor, c.want))
		}
		fmt.Printf("bench-guard: %s %.1f cells/s vs baseline %.1f (floor %.1f, tolerance %.0f%%): %s\n",
			c.name, c.got, c.want, floor, tolerance*100, status)
	}
	return errors.Join(errs...)
}

func main() {
	var (
		out         = flag.String("out", "BENCH_sweep.json", "report file")
		workers     = flag.Int("workers", 0, "extra worker count added to the 1/2/4/NumCPU ladder (0 adds none)")
		cache       = flag.String("cache", "", "cell cache directory for the final ladder leg (empty disables)")
		journal     = flag.String("journal", "", "durable cell journal for the final ladder leg (needs -cache)")
		resume      = flag.Bool("resume", false, "replay cells already committed to -journal")
		cellTimeout = flag.Duration("cell-timeout", 0,
			"wall-clock budget per cell attempt on the ladder legs (0 disables)")
		retries = flag.Int("retries", 0,
			"per-cell retry budget for transient failures on the ladder legs")
		progress = flag.Bool("progress", false,
			"print per-cell completion counts; resumed runs start at the replayed count")
		fabricLegs = flag.Bool("fabric", true,
			"append distributed-fabric legs (grid sharded across 1/2/4 in-process sweepd peers) to the ladder")
		fleetLegFlag = flag.Bool("fleet", true,
			"append fleet-population legs (500 seeded devices through internal/fleet, 1 and NumCPU workers) recording devices/sec, speedup and the feasibility-skip rate")
		guardMode = flag.Bool("guard", false,
			"regression-check serial Table 2 and fleet throughput against -baseline instead of recording a ladder")
		baseline  = flag.String("baseline", "BENCH_sweep.json", "committed report -guard compares against")
		tolerance = flag.Float64("tolerance", 0.5,
			"fraction of baseline serial throughput the -guard run may lose before failing")
	)
	flag.Parse()

	if *guardMode {
		if err := guard(*baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep:", err)
			os.Exit(1)
		}
		return
	}

	serial, serialTime, err := timeSerial()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: serial:", err)
		os.Exit(1)
	}

	counts := ladder(*workers)
	singleCPU := runtime.NumCPU() == 1
	r := report{
		Grid:              "table2: 5 policies x 10 seeds, MPEG 60s",
		SimVersion:        clocksched.SimVersion(),
		Cells:             len(serial.Cells),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		SerialSeconds:     serialTime.Seconds(),
		SerialCellsPerSec: float64(len(serial.Cells)) / serialTime.Seconds(),
	}
	if singleCPU {
		r.Note = singleCPUNote
	}
	ok := true
	for i, w := range counts {
		cfg := paper.Table2Config(1)
		cfg.Workers, cfg.FailFast = w, true
		cfg.CellTimeout = *cellTimeout
		cfg.Retries = *retries
		// The durability knobs attach to the final (widest) leg only, so a
		// resumed journal replays into one timing instead of smearing every
		// leg with cached cells.
		if i == len(counts)-1 {
			if *cache != "" {
				c, err := clocksched.NewSweepCache(0, *cache)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchsweep: cache:", err)
					os.Exit(1)
				}
				cfg.Cache = c
			}
			cfg.Journal = *journal
			cfg.Resume = *resume
		}
		if *progress {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "benchsweep: %d workers: cell %d/%d\n", w, done, total)
			}
		}
		legStart := time.Now()
		res, err := clocksched.Sweep(context.Background(), cfg)
		legTime := time.Since(legStart)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: %d workers: %v\n", w, err)
			os.Exit(1)
		}
		identical := len(serial.Cells) == len(res.Cells)
		for i := range serial.Cells {
			if !identical {
				break
			}
			identical = reflect.DeepEqual(serial.Cells[i].Result, res.Cells[i].Result)
		}
		ok = ok && identical
		leg := run{
			Workers:    w,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Seconds:    legTime.Seconds(),
			Identical:  identical,
		}
		if legTime > 0 {
			leg.CellsPerSec = float64(len(res.Cells)) / legTime.Seconds()
			leg.Speedup = serialTime.Seconds() / legTime.Seconds()
		}
		if singleCPU && w > 1 {
			// A "speedup" from more goroutines on one CPU is cache warmth
			// or timer noise, not parallelism. Refuse to publish the claim:
			// the recorded speedup is zeroed and the leg annotated, so a
			// single-core container can never masquerade as a multi-core
			// scaling result in the benchmark history.
			leg.Note = singleCPUNote
			if leg.Speedup > 1 {
				fmt.Fprintf(os.Stderr,
					"benchsweep: suppressing %.2fx apparent speedup with %d workers on 1 CPU\n",
					leg.Speedup, w)
			}
			leg.Speedup = 0
		}
		r.Runs = append(r.Runs, leg)
		fmt.Printf("%d cells, %d workers (GOMAXPROCS %d, %d cpu): %.3fs (%.1f cells/s, %.2fx), identical=%v\n",
			len(res.Cells), w, leg.GOMAXPROCS, leg.NumCPU, leg.Seconds, leg.CellsPerSec, leg.Speedup, identical)
	}

	if *fabricLegs {
		for _, peers := range []int{1, 2, 4} {
			leg, err := fabricLeg(peers, serial, serialTime)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsweep: fabric %d peers: %v\n", peers, err)
				os.Exit(1)
			}
			if singleCPU && peers > 1 {
				leg.Note = singleCPUNote
				if leg.Speedup > 1 {
					fmt.Fprintf(os.Stderr,
						"benchsweep: suppressing %.2fx apparent fabric speedup with %d peers on 1 CPU\n",
						leg.Speedup, peers)
				}
				leg.Speedup = 0
			}
			ok = ok && leg.Identical
			r.Runs = append(r.Runs, leg)
			fmt.Printf("%d cells, fabric of %d peer(s): %.3fs (%.1f cells/s, %.2fx), identical=%v\n",
				r.Cells, peers, leg.Seconds, leg.CellsPerSec, leg.Speedup, leg.Identical)
		}
	}

	if *fleetLegFlag {
		legs, err := fleetLegs()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep: fleet leg:", err)
			os.Exit(1)
		}
		for _, leg := range legs {
			ok = ok && leg.Identical
			r.Runs = append(r.Runs, leg)
			fmt.Printf("fleet of %d devices, %d workers: %.3fs (%.1f devices/s, %.1f cells/s, %.2fx, skip rate %.3f), identical=%v\n",
				leg.FleetDevices, leg.Workers, leg.Seconds, leg.DevicesPerSec, leg.CellsPerSec, leg.Speedup, leg.SkipRate, leg.Identical)
		}
	}

	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("serial %.3fs, %d ladder legs -> %s\n", r.SerialSeconds, len(r.Runs), *out)
	if !ok {
		fmt.Fprintln(os.Stderr, "benchsweep: a ladder leg diverged from the serial baseline or claimed an impossible speedup")
		os.Exit(1)
	}
}
