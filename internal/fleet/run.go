package fleet

import (
	"context"
	"time"

	"clocksched"
	"clocksched/internal/telemetry"
)

// RunConfig carries the in-process execution resources — everything that
// affects how fast a fleet runs but must never affect what it measures.
// The same plan run serially, with 8 workers, or resumed from a journal
// reduces to a byte-identical population summary; the paper package's
// executors fan a plan's cells out to a daemon or a fabric instead.
type RunConfig struct {
	// Workers bounds local sweep parallelism (0: GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes per-cell results across runs.
	Cache *clocksched.SweepCache
	// Journal + Resume select the sweep's crash-durable journal; Journal
	// requires Cache, exactly as in SweepConfig.
	Journal string
	Resume  bool
	// CellTimeout/Retries/RetryBase are the per-cell resilience knobs,
	// passed through to the sweep layer.
	CellTimeout time.Duration
	Retries     int
	RetryBase   time.Duration
	// Progress, when non-nil, observes (done, total) cell completion.
	Progress func(done, total int)
	// Telemetry, when non-nil, receives fleet_* counters and per-cell
	// instrumentation.
	Telemetry *telemetry.Registry
}

// Run compiles the spec, executes the surviving cells, and reduces the
// results into a Population. The feasibility skips never execute but are
// always reported; a fleet whose every pairing is infeasible returns a
// Population of pure skip buckets without touching the sweep engine.
func Run(ctx context.Context, spec Spec, rc RunConfig) (*Population, error) {
	plan, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, rc)
}

// RunPlan executes an already-compiled plan.
func RunPlan(ctx context.Context, plan *Plan, rc RunConfig) (*Population, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rc.Telemetry != nil {
		rc.Telemetry.Counter("fleet_devices_total").Add(int64(len(plan.Devices)))
		rc.Telemetry.Counter("fleet_cells_total").Add(int64(len(plan.Cells)))
		rc.Telemetry.Counter("fleet_infeasible_total").Add(int64(len(plan.Skips)))
	}

	// With every pairing infeasible there is nothing to sweep, but the
	// skip bucket is still a complete, reportable population result.
	res := &clocksched.SweepResult{}
	if len(plan.Cells) > 0 {
		var err error
		res, err = clocksched.Sweep(ctx, clocksched.SweepConfig{
			Cells:       plan.Cells,
			Workers:     rc.Workers,
			Cache:       rc.Cache,
			Journal:     rc.Journal,
			Resume:      rc.Resume,
			CellTimeout: rc.CellTimeout,
			Retries:     rc.Retries,
			RetryBase:   rc.RetryBase,
			Progress:    rc.Progress,
		})
		if err != nil {
			return nil, err
		}
	}

	pop, err := Reduce(plan, res)
	if err != nil {
		return nil, err
	}
	if rc.Telemetry != nil {
		var measured, failed int64
		for _, r := range pop.Rows {
			measured += int64(r.Measured)
			failed += int64(r.Failed)
		}
		rc.Telemetry.Counter("fleet_cells_measured").Add(measured)
		rc.Telemetry.Counter("fleet_cells_failed").Add(failed)
	}
	return pop, nil
}
