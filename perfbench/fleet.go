package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"clocksched"
	"clocksched/internal/fleet"
)

// fleetRefs is benchsweep's fleet policy trio. The pinned 59 MHz / 1.23 V
// constant is too slow for some classes, so the feasibility pre-pass has
// real pairings to skip.
var fleetRefs = []policyRef{
	{"past-peg-peg", nil},
	{"deadline", nil},
	{"constant", map[string]float64{"mhz": 59, "low_voltage": 1}},
}

// fleetDevicesPerSecond scales the population with the run length, so a
// job stays a small share of the window whatever --seconds is.
const fleetDevicesPerSecond = 100

// fleetProbeCells is how many cells of each traced job the cell probe
// samples.
const fleetProbeCells = 40

// fleetJob is one Compile + RunPlan of the population.
type fleetJob struct {
	dur      time.Duration
	cells    int
	failed   int
	render   string // sha256 of the rendered population summary
	accounts bool   // every row has Devices = Measured + Failed + Infeasible
}

// runFleet prices one seeded population through fleet.Spec.Compile and
// fleet.RunPlan, alternating nproc workers with one worker. Every job
// prices the same population, so every rendered summary must be equal.
func runFleet(e *env) error {
	pols, err := buildPolicies(fleetRefs)
	if err != nil {
		return err
	}
	ctx, cancel := e.ctx()
	defer cancel()
	newSpec := func(devices int, seed uint64) fleet.Spec {
		s := fleet.NewSpec(devices, seed)
		s.Duration = clocksched.Duration(2 * time.Second)
		s.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
		s.Policies = pols
		return s
	}
	devices := fleetDevicesPerSecond * int(e.opt.seconds/time.Second)
	if e.opt.tiny {
		devices = 20
	}
	spec := newSpec(devices, seedOf(e.rng))

	warm := rand.New(rand.NewPCG(e.opt.seed, 0xf1ee7))
	if _, err := timeSetup(e, func() (struct{}, error) {
		_, err := fleet.Run(ctx, newSpec(50, seedOf(warm)), fleet.RunConfig{Workers: e.nproc})
		return struct{}{}, err
	}, func(struct{}) {}); err != nil {
		return err
	}

	account := func(j *fleetJob, pop *fleet.Population) {
		j.render = sha256Hex([]byte(pop.Render()))
		j.accounts = true
		for _, r := range pop.Rows {
			j.failed += r.Failed
			j.accounts = j.accounts && r.Devices == r.Measured+r.Failed+r.Infeasible && r.Devices == spec.Devices
		}
	}
	// job prices the population on workers workers. The traced form makes
	// RunPlan's two steps, the sweep and the reduction, separate calls.
	job := func(workers int, tr *tracer, req string, root int, pool *poolStats) (fleetJob, *fleet.Plan, error) {
		var j fleetJob
		t0 := time.Now()
		id := tr.start("fleet.compile", req, root)
		plan, err := spec.Compile()
		tr.end(id)
		if err != nil {
			return j, nil, err
		}
		var pop *fleet.Population
		if tr == nil {
			pop, err = fleet.RunPlan(ctx, plan, fleet.RunConfig{Workers: workers})
		} else {
			cfg := clocksched.SweepConfig{Cells: plan.Cells, Workers: workers, Telemetry: clocksched.NewTelemetry()}
			id = tr.start("sweep.parallel", req, root)
			s0 := time.Now()
			var res *clocksched.SweepResult
			res, err = clocksched.Sweep(ctx, cfg)
			tr.end(id)
			if err == nil {
				pool.add(cfg.Telemetry, res, time.Since(s0))
				id = tr.start("fleet.reduce", req, root)
				pop, err = fleet.Reduce(plan, res)
				tr.end(id)
			}
		}
		j.dur = time.Since(t0)
		if err != nil {
			return j, nil, err
		}
		j.cells = len(plan.Cells)
		account(&j, pop)
		return j, plan, nil
	}

	var jobs []fleetJob
	var tSer, tPar time.Duration
	var cells, serCells int
	var parMs []float64
	before := sampleRuntime()
	start := time.Now()
	for i := 0; e.more(start, i, 1); i++ {
		for k := 0; k < 2; k++ {
			workers := e.nproc
			if (i+k)%2 == 1 {
				workers = 1
			}
			j, _, err := job(workers, nil, "", 0, nil)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
			if workers == 1 {
				tSer += j.dur
				serCells += j.cells
			} else {
				tPar += j.dur
				cells += j.cells
				parMs = append(parMs, ms(j.dur))
			}
		}
	}
	e.runtimeLayer(before, sampleRuntime(), cells+serCells)
	e.peakRSS()
	nPar := len(parMs)
	e.e2e["cells_per_s"] = float64(cells) / tPar.Seconds()
	e.e2e["serial_cells_per_s"] = float64(serCells) / tSer.Seconds()
	e.e2e["devices_per_s"] = float64(nPar*spec.Devices) / tPar.Seconds()
	e.e2e["job_ms_p50"] = median(parMs)
	e.note("fleet devices=%d jobs=%d per pass, cells per job=%d", spec.Devices, nPar, jobs[0].cells)

	if e.opt.trace {
		tr := newTracer()
		probe := &cellProbe{tr: tr}
		var pool poolStats
		tc := 0
		var tt time.Duration
		start := time.Now()
		for i := 0; e.more(start, i, 1); i++ {
			req := fmt.Sprintf("job-%d", i)
			root := tr.start("fleet.job", req, 0)
			j, plan, err := job(e.nproc, tr, req, root, &pool)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
			tc += j.cells
			tt += j.dur
			e.layer["fleet.skip_rate"] = float64(len(plan.Skips)) / float64(spec.Devices*len(pols))
			stride := max(1, len(plan.Cells)/fleetProbeCells)
			for c := 0; c < len(plan.Cells); c += stride {
				e.check(probe.probe(ctx, fmt.Sprintf("%s/c%d", req, c), root, plan.Cells[c]))
			}
			tr.end(root)
		}
		e.overhead(e.e2e["cells_per_s"], float64(tc)/tt.Seconds())
		e.layer["fleet.compile_ms"] = median(tr.durations("fleet.compile"))
		e.layer["fleet.reduce_ms"] = median(tr.durations("fleet.reduce"))
		probe.record(e)
		pool.record(e)
		if err := tr.report(e); err != nil {
			return err
		}
	}

	// Correctness gate: every device accounted for in one bucket, no
	// failed cells, and one rendered summary across every job.
	want := jobs[0].render
	for i, j := range jobs {
		e.attempted += j.cells
		e.failed += j.failed
		got := j.render
		if i == 1 {
			got = string(e.maybeCorrupt([]byte(got)))
		}
		e.checkf(j.accounts, "job %d: a row's Devices != Measured + Failed + Infeasible", i)
		e.checkf(j.failed == 0, "job %d: %d cells failed", i, j.failed)
		e.checkf(got == want, "job %d: population summary differs from job 0", i)
	}
	e.digest = want
	return nil
}
