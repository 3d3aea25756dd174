package main

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/expt"
	"clocksched/internal/policy"
	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/workload"
)

// cellProbe runs sampled cells through the facade and again layer by
// layer, and accumulates the per-cell layer metrics. The cell path has
// no public function per layer, so each layer is timed by calling its
// own package on the same inputs: the workload constructor, the
// simulation run, a re-integration of the run's power recorder, a replay
// of the run's utilization log through a fresh policy, and the deadline
// reductions.
type cellProbe struct {
	tr    *tracer
	cells int

	runMs                               []float64
	events, quanta, segments, deadlines float64
	samples, retainedKB                 float64
	buildUs, daqUs, reduceUs, kernelNs  float64
	decideNs, decideCalls, kernelEvents float64
}

// probe measures one cell; req ties its spans together under the parent
// span. It checks the layer-by-layer run against the facade's result.
func (p *cellProbe) probe(ctx context.Context, req string, parent int, cfg clocksched.Config) error {
	id := p.tr.start("cell.run", req, parent)
	t0 := time.Now()
	res, err := clocksched.RunContext(ctx, cfg)
	p.runMs = append(p.runMs, ms(time.Since(t0)))
	p.tr.end(id)
	if err != nil {
		return err
	}

	spec, err := runSpec(cfg)
	if err != nil {
		return err
	}
	id = p.tr.start("sim.run", req, parent)
	t0 = time.Now()
	out, err := expt.RunContext(ctx, spec)
	simDur := time.Since(t0)
	p.tr.end(id)
	if err != nil {
		return err
	}
	k := out.Kernel
	if out.EnergyJ != res.EnergyJoules || k.Engine().Fired() != res.Telemetry.EventsFired {
		return fmt.Errorf("cell %s: layer-by-layer run diverged from the facade (%.6f J vs %.6f J)",
			req, out.EnergyJ, res.EnergyJoules)
	}

	fresh, err := runSpec(cfg)
	if err != nil {
		return err
	}
	id = p.tr.start("workload.build", req, parent)
	t0 = time.Now()
	w, err := buildWorkload(fresh)
	build := time.Since(t0)
	p.tr.end(id)
	if err != nil {
		return err
	}

	length := spec.Duration
	if length == 0 {
		length = w.Duration()
	}
	id = p.tr.start("daq.integrate", req, parent)
	t0 = time.Now()
	sum, err := daq.Integrate(k.Recorder(), 0, length, daq.DefaultConfig())
	integ := time.Since(t0)
	p.tr.end(id)
	if err != nil {
		return err
	}
	if sum.EnergyJ != out.EnergyJ {
		return fmt.Errorf("cell %s: re-integrated energy %.6f J differs from the run's %.6f J", req, sum.EnergyJ, out.EnergyJ)
	}

	col := out.Workload.Metrics()
	slack := cfg.DeadlineSlack
	if slack == 0 {
		slack = 33 * time.Millisecond
	}
	id = p.tr.start("metrics.reduce", req, parent)
	t0 = time.Now()
	n, misses, late := col.Count(), col.MissCount(sim.Duration(slack/time.Microsecond)), col.MaxLateness()
	reduce := time.Since(t0)
	p.tr.end(id)
	if n != res.Deadlines || misses != res.Misses || late.Std() != res.MaxLateness {
		return fmt.Errorf("cell %s: deadline reduction differs from the facade", req)
	}

	if fresh.Policy != nil {
		log := k.UtilLog()
		step, volt := fresh.InitialStep, fresh.InitialV
		id = p.tr.start("policy.decide", req, parent)
		t0 = time.Now()
		for _, u := range log {
			step, volt = fresh.Policy.OnQuantum(u.At, u.PP10K, step, volt)
		}
		p.decideNs += float64(time.Since(t0).Nanoseconds())
		p.tr.end(id)
		p.decideCalls += float64(len(log))
	}

	pts := k.Recorder().Points()
	p.cells++
	p.events += float64(k.Engine().Fired())
	p.quanta += float64(len(k.UtilLog()))
	p.segments += float64(len(pts))
	p.retainedKB += float64(cap(pts)) * float64(unsafe.Sizeof(power.TimePoint{})) / 1024
	p.deadlines += float64(n)
	p.samples += float64(sum.Samples)
	p.buildUs += float64(build.Microseconds())
	p.daqUs += float64(integ) / float64(time.Microsecond)
	p.reduceUs += float64(reduce) / float64(time.Microsecond)
	// The simulation's own time is the run minus the work it does in
	// the layers timed above.
	p.kernelNs += float64((simDur - build - integ - reduce).Nanoseconds())
	p.kernelEvents += float64(k.Engine().Fired())
	return nil
}

// record writes the accumulated per-cell layer metrics.
func (p *cellProbe) record(e *env) {
	if p.cells == 0 {
		return
	}
	n := float64(p.cells)
	e.layer["workload.build_us"] = p.buildUs / n
	e.layer["sim.events_per_cell"] = p.events / n
	e.layer["kernel.quanta_per_cell"] = p.quanta / n
	if p.kernelEvents > 0 {
		e.layer["sim.ns_per_event"] = p.kernelNs / p.kernelEvents
	}
	e.layer["cell.run_ms_p50"] = median(p.runMs)
	e.layer["cell.run_ms_p99"] = quantile(p.runMs, 0.99)
	if p.decideCalls > 0 {
		e.layer["policy.decide_ns"] = p.decideNs / p.decideCalls
	}
	e.layer["power.segments_per_cell"] = p.segments / n
	e.layer["power.retained_kb_per_cell"] = p.retainedKB / n
	e.layer["metrics.deadlines_per_cell"] = p.deadlines / n
	e.layer["metrics.reduce_us"] = p.reduceUs / n
	e.layer["daq.integrate_us"] = p.daqUs / n
	e.layer["daq.samples_per_cell"] = p.samples / n
	e.note("cell probes %d (cell.run_ms_p99 over %d samples)", p.cells, len(p.runMs))
}

// runSpec builds the simulation spec the facade builds for cfg, for the
// policy families the workloads use: constant, deadline and the interval
// governor. The probe checks its run against the facade's, so a drift
// between the two fails the gate instead of skewing the layer numbers.
func runSpec(cfg clocksched.Config) (expt.RunSpec, error) {
	if cfg.Faults != nil || cfg.Watchdog != nil {
		return expt.RunSpec{}, fmt.Errorf("probe: faults and watchdogs are not probed")
	}
	p := cfg.Policy
	spec := expt.RunSpec{
		Workload:    string(cfg.Workload),
		Seed:        cfg.Seed,
		Duration:    sim.Duration(cfg.Duration / time.Microsecond),
		InitialStep: cpu.MaxStep,
		InitialV:    cpu.VHigh,
	}
	switch {
	case p.Constant:
		spec.InitialStep = cpu.NearestStep(int64(p.MHz * 1000))
		if p.LowVoltage {
			spec.InitialV = cpu.VLow
		}
	case p.Deadline:
		d := policy.NewDeadlineScheduler()
		d.VoltageScale = p.VoltageScale
		spec.Policy = d
	case p.Zoo == "" && !p.Proportional:
		pred, err := policy.NewAvgN(p.AvgN)
		if err != nil {
			return spec, err
		}
		up, okUp := policy.SetterByName(string(p.Up))
		down, okDown := policy.SetterByName(string(p.Down))
		if !okUp || !okDown {
			return spec, fmt.Errorf("probe: unknown speed setter in %s", p.Name())
		}
		gov, err := policy.NewGovernor(pred, up, down,
			policy.Bounds{Lo: p.LoPercent * 100, Hi: p.HiPercent * 100}, p.VoltageScale)
		if err != nil {
			return spec, err
		}
		spec.Policy = gov
	default:
		return spec, fmt.Errorf("probe: policy %s is not probed", p.Name())
	}
	return spec, nil
}

// buildWorkload calls the workload constructor the simulation calls for
// spec, so its cost can be timed on its own.
func buildWorkload(spec expt.RunSpec) (workload.Workload, error) {
	switch spec.Workload {
	case "mpeg":
		cfg := workload.DefaultMPEGConfig()
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return workload.NewMPEG(cfg)
	case "web":
		return workload.NewWeb(workload.DefaultWebTrace(spec.Seed + 1))
	case "chess":
		return workload.NewChess(workload.DefaultChessTrace(spec.Seed + 1))
	case "editor":
		return workload.NewTalkingEditor(workload.DefaultEditorTrace(spec.Seed + 1))
	case "feedback":
		cfg := workload.DefaultFeedbackConfig()
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Duration != 0 {
			cfg.Length = spec.Duration
		}
		if ds, ok := spec.Policy.(workload.DeadlineSink); ok {
			cfg.Deadlines = ds
		}
		return workload.NewFeedback(cfg)
	}
	return nil, fmt.Errorf("probe: workload %q is not probed", spec.Workload)
}
