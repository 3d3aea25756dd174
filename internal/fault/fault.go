// Package fault provides deterministic, seed-driven fault injection for the
// simulated Itsy. A Plan declares which hardware and kernel misbehaviours a
// run should suffer and at what rates; an Injector draws every fault
// decision from its own RNG stream, isolated from the workload's jitter
// stream, so that enabling or tuning faults never perturbs the rest of the
// simulation and every faulted run is bit-for-bit repeatable from its seed.
//
// The injectable faults mirror the ways the paper's measurement setup could
// really misbehave: the SA-1100's clock-change register write can fail or
// the PLL can take longer than its specified 200 µs to relock; the DAQ can
// drop or glitch shunt-resistor samples; and the kernel's 100 Hz timer can
// fire late or lose scheduler-log records to its limited log memory.
package fault

import (
	"fmt"

	"clocksched/internal/sim"
)

// Stream is the injector's RNG stream id under the run seed (the workload
// uses the unnumbered base stream).
const Stream = 0xFA017

// abortStreamBase numbers the cell-abort decision streams, one per retry
// attempt (abortStreamBase+attempt). Abort draws live on their own streams,
// apart from Stream, for two reasons: a run that survives must stay
// bit-identical whether or not aborts were armed, and a retried attempt
// must see an independent abort schedule — otherwise a deterministic
// injector would kill every retry at the same quantum forever and the
// retry budget could never help.
const abortStreamBase = 0x7AB007E1

// daqStream is the acquisition-fault stream (sample drops and glitches).
// The DAQ folds its readings while the run is still making the
// kernel-side draws on Stream, so sharing that stream would tie the
// instrument's fault schedule to how the two interleave, and a copy of it
// would replay the kernel's draws: the i-th reading's drop would be the
// i-th clock change's failure.
const daqStream = 0xDA0F17

// ErrCellAbort is the injected mid-run failure. It declares itself
// transient (Transient() == true), which is what tells the sweep's retry
// layer the cell is worth re-running.
var ErrCellAbort error = cellAbortError{}

// cellAbortError is comparable and stateless so errors.Is works naturally.
type cellAbortError struct{}

func (cellAbortError) Error() string   { return "fault: injected cell abort" }
func (cellAbortError) Transient() bool { return true }

// Plan declares the faults to inject into one run. The zero value injects
// nothing. Probabilities are per opportunity (per attempted clock change,
// per DAQ sample, per timer re-arm, per log record) in [0, 1].
type Plan struct {
	// ClockChangeFailProb is the probability that a requested clock-step
	// change silently fails: the clock stays at the old step, no PLL
	// stall occurs, and the policy only discovers the failure by seeing
	// the unchanged step at the next quantum.
	ClockChangeFailProb float64
	// SettleStallProb is the probability that a successful clock change
	// stalls the processor for an extended relock, adding a uniform extra
	// duration in (0, SettleStallMax] on top of the nominal 200 µs.
	SettleStallProb float64
	// SettleStallMax bounds the extra relock stall; zero selects 2 ms.
	SettleStallMax sim.Duration

	// SampleDropProb is the probability that one DAQ reading is lost. The
	// capture holds the previous reading (sample-and-hold), as the
	// paper's instrument does on a missed conversion.
	SampleDropProb float64
	// SampleGlitchProb is the probability that one DAQ reading is
	// corrupted by additive noise, uniform in ±SampleGlitchWatts, clipped
	// to the instrument's full scale.
	SampleGlitchProb float64
	// SampleGlitchWatts bounds the glitch amplitude; zero selects 0.5 W.
	SampleGlitchWatts float64

	// TimerJitterProb is the probability that one 100 Hz timer interrupt
	// is delivered late, by a uniform delay in (0, TimerJitterMax]. The
	// following interrupts re-align to the stretched schedule, so jitter
	// accumulates the way a flaky interrupt controller's would.
	TimerJitterProb float64
	// TimerJitterMax bounds the delay; zero selects 2 ms.
	TimerJitterMax sim.Duration

	// TraceDropProb is the probability that one scheduler-log record is
	// lost before being written.
	TraceDropProb float64
	// TraceDelayProb is the probability that one scheduler-log record is
	// timestamped late by a uniform delay in (0, TraceDelayMax],
	// modelling deferred log writes; analysis code must tolerate the
	// resulting non-monotonic log.
	TraceDelayProb float64
	// TraceDelayMax bounds the timestamp delay; zero selects 5 ms.
	TraceDelayMax sim.Duration

	// CellAbortProb is the per-quantum probability that the whole run is
	// killed mid-flight with ErrCellAbort — the crashed-process /
	// lost-worker failure mode, as opposed to the degraded-measurement
	// faults above. The decision draws from a per-attempt stream so a
	// sweep's retry of an aborted cell faces fresh luck, while runs that
	// complete are unaffected by arming it.
	CellAbortProb float64
}

// Defaults for the bound fields when the matching probability is set.
const (
	DefaultSettleStallMax = 2 * sim.Millisecond
	DefaultTimerJitterMax = 2 * sim.Millisecond
	DefaultTraceDelayMax  = 5 * sim.Millisecond
	DefaultGlitchWatts    = 0.5
)

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.ClockChangeFailProb > 0 || p.SettleStallProb > 0 ||
		p.SampleDropProb > 0 || p.SampleGlitchProb > 0 ||
		p.TimerJitterProb > 0 ||
		p.TraceDropProb > 0 || p.TraceDelayProb > 0 ||
		p.CellAbortProb > 0
}

// Validate checks every rate and bound is in range.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	probs := []struct {
		name string
		v    float64
	}{
		{"ClockChangeFailProb", p.ClockChangeFailProb},
		{"SettleStallProb", p.SettleStallProb},
		{"SampleDropProb", p.SampleDropProb},
		{"SampleGlitchProb", p.SampleGlitchProb},
		{"TimerJitterProb", p.TimerJitterProb},
		{"TraceDropProb", p.TraceDropProb},
		{"TraceDelayProb", p.TraceDelayProb},
		{"CellAbortProb", p.CellAbortProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("fault: %s = %v out of [0, 1]", pr.name, pr.v)
		}
	}
	if p.SettleStallMax < 0 {
		return fmt.Errorf("fault: negative SettleStallMax %v", p.SettleStallMax)
	}
	if p.TimerJitterMax < 0 {
		return fmt.Errorf("fault: negative TimerJitterMax %v", p.TimerJitterMax)
	}
	if p.TraceDelayMax < 0 {
		return fmt.Errorf("fault: negative TraceDelayMax %v", p.TraceDelayMax)
	}
	if p.SampleGlitchWatts < 0 || p.SampleGlitchWatts != p.SampleGlitchWatts {
		return fmt.Errorf("fault: bad SampleGlitchWatts %v", p.SampleGlitchWatts)
	}
	return nil
}

// withDefaults fills the zero bound fields.
func (p Plan) withDefaults() Plan {
	if p.SettleStallMax == 0 {
		p.SettleStallMax = DefaultSettleStallMax
	}
	if p.TimerJitterMax == 0 {
		p.TimerJitterMax = DefaultTimerJitterMax
	}
	if p.TraceDelayMax == 0 {
		p.TraceDelayMax = DefaultTraceDelayMax
	}
	if p.SampleGlitchWatts == 0 {
		p.SampleGlitchWatts = DefaultGlitchWatts
	}
	return p
}

// Counts tallies what an injector actually did, for run diagnostics.
type Counts struct {
	ClockChangeFails int
	SettleStalls     int
	ExtraStallTime   sim.Duration
	SamplesDropped   int
	SamplesGlitched  int
	TimerJitters     int
	TimerJitterTime  sim.Duration
	TraceDrops       int
	TraceDelays      int
	CellAborts       int
}

// Total returns the number of injected faults of every kind.
func (c Counts) Total() int {
	return c.ClockChangeFails + c.SettleStalls +
		c.SamplesDropped + c.SamplesGlitched +
		c.TimerJitters + c.TraceDrops + c.TraceDelays +
		c.CellAborts
}

// String summarizes the tally compactly.
func (c Counts) String() string {
	return fmt.Sprintf(
		"clock fails %d, settle stalls %d (+%v), samples dropped %d glitched %d, "+
			"timer jitters %d (+%v), trace drops %d delays %d, cell aborts %d",
		c.ClockChangeFails, c.SettleStalls, c.ExtraStallTime,
		c.SamplesDropped, c.SamplesGlitched,
		c.TimerJitters, c.TimerJitterTime, c.TraceDrops, c.TraceDelays,
		c.CellAborts)
}

// Injector executes a Plan. Every decision draws from the injector's own
// RNG stream, derived from the run seed on the dedicated fault Stream, so
// two runs with the same seed and plan inject the same faults at the same
// opportunities. All methods are nil-safe: a nil *Injector injects nothing
// and draws nothing, which is what keeps the no-faults configuration
// bit-identical to a build without the fault layer.
type Injector struct {
	plan     Plan
	rng      *sim.RNG
	daqRNG   *sim.RNG // acquisition faults, on daqStream
	abortRNG *sim.RNG
	counts   Counts
}

// NewInjector builds an injector for the plan under the given run seed and
// zero-based retry attempt of the same cell. A nil or all-zero plan yields
// a nil injector (inject nothing), so callers can thread the result
// unconditionally. All measurement-degrading faults stay identical across
// attempts (same seed, same Stream), preserving bit-identical replays; only
// the cell-abort schedule is re-drawn per attempt, so a retried cell can
// survive where the previous attempt died.
func NewInjector(p *Plan, seed uint64, attempt int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if attempt < 0 {
		return nil, fmt.Errorf("fault: negative attempt %d", attempt)
	}
	if !p.Enabled() {
		return nil, nil
	}
	return &Injector{
		plan:     p.withDefaults(),
		rng:      sim.NewRNGStream(seed, Stream),
		daqRNG:   sim.NewRNGStream(seed, daqStream),
		abortRNG: sim.NewRNGStream(seed, abortStreamBase+uint64(attempt)),
	}, nil
}

// Counts returns the tally of injected faults so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// Plan returns the effective plan (bounds defaulted); the zero Plan for a
// nil injector.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// ClockChangeFails decides whether one requested clock-step change
// silently fails.
func (in *Injector) ClockChangeFails() bool {
	if in == nil || in.plan.ClockChangeFailProb <= 0 {
		return false
	}
	if !in.rng.Bool(in.plan.ClockChangeFailProb) {
		return false
	}
	in.counts.ClockChangeFails++
	return true
}

// ExtraSettle returns the extra PLL relock stall for one successful clock
// change (zero for no fault).
func (in *Injector) ExtraSettle() sim.Duration {
	if in == nil || in.plan.SettleStallProb <= 0 {
		return 0
	}
	if !in.rng.Bool(in.plan.SettleStallProb) {
		return 0
	}
	d := in.rng.Duration(1, in.plan.SettleStallMax)
	in.counts.SettleStalls++
	in.counts.ExtraStallTime += d
	return d
}

// DropSample decides whether one DAQ reading is lost.
func (in *Injector) DropSample() bool {
	if in == nil || in.plan.SampleDropProb <= 0 {
		return false
	}
	if !in.daqRNG.Bool(in.plan.SampleDropProb) {
		return false
	}
	in.counts.SamplesDropped++
	return true
}

// GlitchWatts returns the additive noise for one DAQ reading and whether a
// glitch occurred at all.
func (in *Injector) GlitchWatts() (float64, bool) {
	if in == nil || in.plan.SampleGlitchProb <= 0 {
		return 0, false
	}
	if !in.daqRNG.Bool(in.plan.SampleGlitchProb) {
		return 0, false
	}
	in.counts.SamplesGlitched++
	return in.plan.SampleGlitchWatts * (2*in.daqRNG.Float64() - 1), true
}

// TimerJitter returns the extra delay for one timer interrupt delivery
// (zero for an on-time tick).
func (in *Injector) TimerJitter() sim.Duration {
	if in == nil || in.plan.TimerJitterProb <= 0 {
		return 0
	}
	if !in.rng.Bool(in.plan.TimerJitterProb) {
		return 0
	}
	d := in.rng.Duration(1, in.plan.TimerJitterMax)
	in.counts.TimerJitters++
	in.counts.TimerJitterTime += d
	return d
}

// DropTraceEvent decides whether one scheduler-log record is lost.
func (in *Injector) DropTraceEvent() bool {
	if in == nil || in.plan.TraceDropProb <= 0 {
		return false
	}
	if !in.rng.Bool(in.plan.TraceDropProb) {
		return false
	}
	in.counts.TraceDrops++
	return true
}

// RunAborts decides whether the run dies at this quantum boundary with
// ErrCellAbort. The draw comes from the attempt-numbered abort stream, so
// it neither perturbs the other fault decisions nor repeats across retry
// attempts.
func (in *Injector) RunAborts() bool {
	if in == nil || in.plan.CellAbortProb <= 0 {
		return false
	}
	if !in.abortRNG.Bool(in.plan.CellAbortProb) {
		return false
	}
	in.counts.CellAborts++
	return true
}

// TraceDelay returns the timestamp delay for one scheduler-log record
// (zero for an on-time write).
func (in *Injector) TraceDelay() sim.Duration {
	if in == nil || in.plan.TraceDelayProb <= 0 {
		return 0
	}
	if !in.rng.Bool(in.plan.TraceDelayProb) {
		return 0
	}
	d := in.rng.Duration(1, in.plan.TraceDelayMax)
	in.counts.TraceDelays++
	return d
}
