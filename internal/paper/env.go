// Package paper defines one reproduction harness per table and figure of the
// paper's evaluation, plus the extension experiments. Each experiment
// returns a typed result with a text renderer that prints the same rows or
// series the paper reports; cmd/experiments regenerates everything, and the
// package benchmarks time each one.
//
// Every grid experiment is a clocksched.SweepConfig plus a fold over the
// *clocksched.SweepResult, so the paper's tables share one cell type, one
// codec, and one cache with sweepd, the fabric, and the fleet. Env.sweep
// hands each grid to an Executor: in process (Local), to a sweepd daemon
// (Remote), or across a fabric of daemons (Fabric). The two experiments
// whose runs no public Config expresses — dvs (a power-model override) and
// exhaustion (the raw power timeline) — call the single-cell runner in
// internal/expt directly.
package paper

import (
	"context"
	"fmt"
	"sync/atomic"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/service"
)

// Executor runs one experiment grid and returns its cells in grid order.
// Whatever runs the grid, the result is byte-identical to a serial
// in-process sweep, so the choice is purely a throughput decision.
type Executor func(ctx context.Context, grid clocksched.SweepConfig) (*clocksched.SweepResult, error)

// Env carries the cross-cutting settings for one experiment run: the
// cancellation context, the workload jitter seed, and the executor every
// grid runs through. The zero value runs serially in process with seed 0
// and no cache.
type Env struct {
	Ctx  context.Context
	Seed uint64
	// Exec runs the experiment's grids; nil selects a serial, uncached
	// Local executor.
	Exec Executor
}

// DefaultEnv is the serial environment: one worker, no cache.
func DefaultEnv(seed uint64) Env {
	return Env{Ctx: context.Background(), Seed: seed}
}

func (e Env) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// sweep runs one experiment grid, fail-fast, through the environment's
// executor. The first cell error aborts the grid.
func (e Env) sweep(grid clocksched.SweepConfig) (*clocksched.SweepResult, error) {
	grid.FailFast = true
	exec := e.Exec
	if exec == nil {
		exec = Local(clocksched.SweepConfig{Workers: 1})
	}
	return exec(e.ctx(), grid)
}

// Local returns the in-process executor. Each grid runs through
// clocksched.Sweep under the execution resources of res — Workers, Cache,
// Journal, Resume, CellTimeout, Retries, RetryBase, Progress, and
// Telemetry; its grid fields are ignored. One journal spans every grid the
// executor runs: the first sweep opens it as res.Resume says, and later
// sweeps append to it, so an interrupted multi-experiment run resumes
// wherever it stopped. Sweeps sharing a journal must run one at a time, as
// an experiment's grids do.
func Local(res clocksched.SweepConfig) Executor {
	var opened atomic.Bool
	return func(ctx context.Context, grid clocksched.SweepConfig) (*clocksched.SweepResult, error) {
		grid.Workers = res.Workers
		grid.Cache = res.Cache
		grid.Progress = res.Progress
		grid.Telemetry = res.Telemetry
		grid.CellTimeout = res.CellTimeout
		grid.Retries = res.Retries
		grid.RetryBase = res.RetryBase
		grid.Journal = res.Journal
		grid.Resume = res.Journal != "" && (opened.Swap(true) || res.Resume)
		return clocksched.Sweep(ctx, grid)
	}
}

// Remote returns the executor that submits each grid to the sweepd daemon
// behind client and waits for the finished job. progress, when non-nil,
// observes each change in the job's completion count.
func Remote(client *service.Client, progress func(done, total int)) Executor {
	return func(ctx context.Context, grid clocksched.SweepConfig) (*clocksched.SweepResult, error) {
		st, err := client.Submit(ctx, clocksched.NewSweepSpec(grid))
		if err != nil {
			return nil, fmt.Errorf("remote submit: %w", err)
		}
		last := -1
		onPoll := func(done, total int) {
			if progress != nil && done != last {
				last = done
				progress(done, total)
			}
		}
		if st, err = client.Wait(ctx, st.ID, onPoll); err != nil {
			return nil, fmt.Errorf("remote wait: %w", err)
		}
		if st.State != service.StateDone {
			return nil, fmt.Errorf("remote job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		res, err := client.Result(ctx, st.ID)
		if err != nil {
			return nil, fmt.Errorf("remote result: %w", err)
		}
		return res, nil
	}
}

// Fabric returns the executor that coordinates each grid across cfg.Peers
// through a fresh fabric coordinator rooted at cfg.Dir. The coordinator's
// lease ledger resumes an interrupted grid on the next run of the same
// spec.
func Fabric(cfg fabric.Config) Executor {
	return func(ctx context.Context, grid clocksched.SweepConfig) (*clocksched.SweepResult, error) {
		co, err := fabric.New(cfg)
		if err != nil {
			return nil, err
		}
		return co.Run(ctx, clocksched.NewSweepSpec(grid))
	}
}
