package expt

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
	"clocksched/internal/sweep"
)

// countdownCtx is a context whose deadline "fires" when its Done channel is
// closed by expire — a deterministic stand-in for a wall-clock deadline that
// runs out mid-simulation. Like a real context, Err stays nil until Done has
// closed and reports context.DeadlineExceeded from then on.
type countdownCtx struct {
	context.Context
	done    chan struct{}
	expired atomic.Bool
}

func newCountdownCtx() *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *countdownCtx) expire() {
	c.expired.Store(true)
	close(c.done)
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, true }

// expiringPolicy wraps a policy and expires ctx during its n-th OnQuantum,
// counting the quanta that run after the expiry.
type expiringPolicy struct {
	inner kernel.SpeedPolicy
	ctx   *countdownCtx
	n     int
	seen  int
	after int
}

func (p *expiringPolicy) OnQuantum(now sim.Time, util int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	p.seen++
	switch {
	case p.seen == p.n:
		p.ctx.expire()
	case p.seen > p.n:
		p.after++
	}
	return p.inner.OnQuantum(now, util, s, v)
}

// holdPolicy keeps the current settings.
type holdPolicy struct{}

func (holdPolicy) OnQuantum(_ sim.Time, _ int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage) {
	return s, v
}

// TestRunContextDeadlineStopsAtQuantumBoundary pins the deadline semantics:
// a context that expires mid-run aborts the simulation at the next quantum
// boundary — never mid-quantum, and at most one quantum after the expiry —
// and the returned error wraps context.DeadlineExceeded through the
// kernel's cancellation chain.
func TestRunContextDeadlineStopsAtQuantumBoundary(t *testing.T) {
	ctx := newCountdownCtx()
	pol := &expiringPolicy{inner: holdPolicy{}, ctx: ctx, n: 5}
	_, err := RunContext(ctx, RunSpec{
		Workload:    "rect",
		Duration:    2 * sim.Second,
		Policy:      pol,
		InitialStep: cpu.MaxStep,
	})
	if err == nil {
		t.Fatal("expired deadline ran to completion")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a wrapped context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "quantum boundary") {
		t.Errorf("err %q does not name the quantum-boundary abort point", err)
	}
	if pol.after > 1 {
		t.Errorf("%d quanta ran after the deadline fired, want at most 1", pol.after)
	}
}

// errCountCtx counts calls to Err on a live cancellable context.
type errCountCtx struct {
	context.Context
	errs atomic.Int64
}

func (c *errCountCtx) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

// TestRunContextPollsCancelWithoutErr pins the lock-free cancel poll: a
// context's Err takes its mutex, so a cell must watch Done at its quantum
// boundaries and read Err only when Done has closed. A 200-quantum cell
// under a live, never-cancelled context calls Err at most once.
func TestRunContextPollsCancelWithoutErr(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCountCtx{Context: parent}
	out, err := RunContext(ctx, RunSpec{Workload: "rect", Duration: 2 * sim.Second, InitialStep: cpu.MaxStep})
	if err != nil {
		t.Fatal(err)
	}
	if q := out.Kernel.Quanta(); q != 200 {
		t.Fatalf("cell ran %d quanta, want 200", q)
	}
	if n := ctx.errs.Load(); n > 1 {
		t.Errorf("Err called %d times over 200 quanta, want at most 1", n)
	}
}

// TestRunContextDeadlineBeforeStart covers the trivial path: a context
// already expired never starts the simulation.
func TestRunContextDeadlineBeforeStart(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, RunSpec{Workload: "rect", Duration: sim.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRunContextAttemptSaltsOnlyAbortStream pins the retry contract the
// sweep layer depends on: the attempt number threaded through the context
// must not change a successful run's results (attempt salts only the fault
// injector's cell-abort schedule).
func TestRunContextAttemptSaltsOnlyAbortStream(t *testing.T) {
	spec := RunSpec{Workload: "rect", Duration: 2 * sim.Second, InitialStep: cpu.MaxStep}
	base, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := RunContext(sweep.WithAttempt(context.Background(), 3), spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.EnergyJ != retry.EnergyJ || base.MeanUtil != retry.MeanUtil {
		t.Errorf("attempt changed a fault-free run: energy %v vs %v, util %v vs %v",
			base.EnergyJ, retry.EnergyJ, base.MeanUtil, retry.MeanUtil)
	}
}
