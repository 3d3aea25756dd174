package paper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/policy"
)

// This file is the standing optimality-gap experiment: every
// registered policy × every application workload, scored against the
// offline optimal schedule. The paper's Table 2 compares heuristics to
// each other; this table quantifies how far each one sits from the true
// lower bound.
//
// Method. For each workload, a full-speed run records the per-quantum
// utilization trace; each interval's work, granted the paper's ~30 ms
// perceptual slack (3 quanta), forms the oracle's job instance. The
// Li–Yao–Yuan schedule of that instance is the clairvoyant optimum. Each
// policy then runs the same workload for real, and the step sequence it
// actually chose is replayed against the oracle instance in the trace
// energy model (Σ work·speed², speeds relative to the top step), serving
// work earliest-deadline-first; work served past its deadline — or never —
// is charged at full speed (the makeup convention of policy.ScoreSpeeds),
// since late work forfeits exactly the slowdown that saved the energy. A
// feasible schedule can therefore never score below the oracle, and the
// table's "×opt" column is a true optimality gap.
//
// The policy list is the registry's, read at run time: policies registered
// after package init (other packages, tests) join the comparison, each at
// its default parameters.

// ZooSlackQuanta is the deadline slack granted to each trace interval's
// work in the oracle instance: 3 quanta ≈ 30 ms, the paper's perceptual
// latency budget (and just inside the 33 ms Table 2 miss threshold).
const ZooSlackQuanta = 3

// ZooOracleName labels the oracle row of the comparison table.
const ZooOracleName = "oracle"

// ZooRow is one (workload, policy) comparison entry.
type ZooRow struct {
	Workload string
	Policy   string
	// Real-simulation measurements (zero for the oracle row, which does
	// not run on the simulated hardware).
	EnergyJ   float64
	Deadlines int
	Misses    int
	// Trace-model scoring against the oracle instance.
	TraceEnergy  float64 // deadline-charged energy, normalized to full-speed
	TraceMissPct float64 // per-job deadline miss rate in the trace replay
	Norm         float64 // TraceEnergy / oracle's TraceEnergy (the gap)
}

// fullSpeedTraces are the trace cells of the zoo and Weiser experiments:
// each of FigureWorkloads at constant full speed, utilization trace
// retained.
func fullSpeedTraces(seed uint64, duration time.Duration) []clocksched.Config {
	cells := make([]clocksched.Config, len(FigureWorkloads))
	for i, w := range FigureWorkloads {
		cells[i] = clocksched.Config{
			Workload: clocksched.Workload(w), Seed: seed, Duration: duration, CaptureTrace: true,
		}
	}
	return cells
}

// traceUtil extracts a traced cell's per-quantum utilization.
func traceUtil(r *clocksched.Result) []float64 {
	util := make([]float64, 0, r.TraceLen())
	for u := range r.TraceSeq() {
		util = append(util, u.Utilization)
	}
	return util
}

// ZooComparison runs the optimality-gap grid: all registered policies × the
// four application workloads, plus the oracle row per workload. Rows come
// back grouped by workload in FigureWorkloads order, oracle first, then
// policies sorted by name.
func ZooComparison(env Env, duration time.Duration) ([]ZooRow, error) {
	if duration <= 0 {
		duration = 30 * time.Second
	}
	names := clocksched.RegisteredPolicies()
	zoo := make([]clocksched.Policy, len(names))
	for i, name := range names {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			return nil, fmt.Errorf("paper: zoo policy %q: %w", name, err)
		}
		zoo[i] = p
	}

	// One grid for everything: per workload, a full-speed trace cell plus
	// one cell per policy.
	traces := fullSpeedTraces(env.Seed, duration)
	var cells []clocksched.Config
	for _, trace := range traces {
		cells = append(cells, trace)
		for _, p := range zoo {
			cell := trace
			cell.Policy = p
			cells = append(cells, cell)
		}
	}
	res, err := env.sweep(clocksched.SweepConfig{Cells: cells})
	if err != nil {
		return nil, err
	}

	// Score each workload group.
	var rows []ZooRow
	for wi, w := range FigureWorkloads {
		base := wi * (1 + len(zoo))
		util := traceUtil(res.Cells[base].Result)
		totalWork := 0.0
		for _, v := range util {
			totalWork += v
		}
		if totalWork == 0 {
			return nil, fmt.Errorf("paper: zoo workload %q recorded no work", w)
		}
		jobs := policy.OracleFromTrace(util, ZooSlackQuanta)
		sched, err := policy.OptimalSchedule(jobs)
		if err != nil {
			return nil, fmt.Errorf("paper: zoo oracle for %q: %w", w, err)
		}
		if missed, late := policy.VerifySchedule(jobs, sched); missed > 1e-6 || late != 0 {
			return nil, fmt.Errorf("paper: zoo oracle for %q misses %v work (%d jobs)",
				w, missed, late)
		}
		oracleEnergy := sched.Energy()
		rows = append(rows, ZooRow{
			Workload:    w,
			Policy:      ZooOracleName,
			TraceEnergy: oracleEnergy / totalWork,
			Norm:        1,
		})
		for pi, name := range names {
			r := res.Cells[base+1+pi].Result
			if r.TraceLen() != len(util) {
				return nil, fmt.Errorf("paper: zoo %q/%s: %d quanta vs %d in the trace run",
					w, name, r.TraceLen(), len(util))
			}
			speeds := make([]float64, 0, len(util))
			for u := range r.TraceSeq() {
				step := cpu.NearestStep(int64(math.Round(u.MHz * 1000)))
				speeds = append(speeds, float64(step.KHz())/float64(cpu.MaxStep.KHz()))
			}
			sc := policy.ScoreSpeeds(jobs, speeds, true)
			missPct := 0.0
			if sc.Jobs > 0 {
				missPct = 100 * float64(sc.LateJobs) / float64(sc.Jobs)
			}
			rows = append(rows, ZooRow{
				Workload:     w,
				Policy:       name,
				EnergyJ:      r.EnergyJoules,
				Deadlines:    r.Deadlines,
				Misses:       r.Misses,
				TraceEnergy:  sc.Energy / totalWork,
				TraceMissPct: missPct,
				Norm:         sc.Energy / oracleEnergy,
			})
		}
	}
	return rows, nil
}

// RenderZoo prints the optimality-gap table deterministically.
func RenderZoo(rows []ZooRow) string {
	var b strings.Builder
	b.WriteString("Optimality gap: registered policies vs the offline optimal schedule\n")
	b.WriteString("(trace model: energy relative to running everything at full speed;\n")
	b.WriteString(" ×opt = deadline-charged energy over the oracle's; slack 30 ms)\n\n")
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			if last != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "%s\n", r.Workload)
			fmt.Fprintf(&b, "  %-14s %8s %7s %10s %8s %10s\n",
				"policy", "energy", "×opt", "miss", "E(J)", "sim misses")
			last = r.Workload
		}
		if r.Policy == ZooOracleName {
			fmt.Fprintf(&b, "  %-14s %8.3f %7.2f %9.1f%% %8s %10s\n",
				r.Policy, r.TraceEnergy, r.Norm, 0.0, "—", "—")
			continue
		}
		fmt.Fprintf(&b, "  %-14s %8.3f %7.2f %9.1f%% %8.2f %6d/%d\n",
			r.Policy, r.TraceEnergy, r.Norm, r.TraceMissPct,
			r.EnergyJ, r.Misses, r.Deadlines)
	}
	return b.String()
}
