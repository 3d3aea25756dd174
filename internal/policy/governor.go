package policy

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Bounds is the hysteresis pair that decides *when* to scale: if the
// weighted utilization rises above Hi the clock scales up; below Lo it
// scales down; in between it holds. Values are PP10K. Pering et al. used
// 50%/70%; the paper's best-found policy used 93%/98%.
type Bounds struct {
	Lo, Hi int
}

// Validate checks the bounds are ordered and in range.
func (b Bounds) Validate() error {
	if b.Lo < 0 || b.Hi > FullUtil || b.Lo > b.Hi {
		return fmt.Errorf("policy: bad bounds %d/%d", b.Lo, b.Hi)
	}
	return nil
}

// PeringBounds are the 50%/70% thresholds of Pering et al., the paper's
// starting point.
var PeringBounds = Bounds{Lo: 5000, Hi: 7000}

// BestBounds are the thresholds of the best policy the paper found
// empirically: scale up above 98% utilization, down below 93%.
var BestBounds = Bounds{Lo: 9300, Hi: 9800}

// Decision is one quantum's output of a governor.
type Decision struct {
	Step     cpu.Step
	V        cpu.Voltage
	Weighted int  // weighted utilization used for the decision, PP10K
	ScaledUp bool // the decision was a scale-up
	ScaledDn bool // the decision was a scale-down
}

// Governor is a complete interval scheduler: predictor + hysteresis bounds
// + per-direction speed setters + optional voltage scaling. It satisfies
// the kernel's SpeedPolicy interface.
type Governor struct {
	pred   Predictor
	up     SpeedSetter
	down   SpeedSetter
	bounds Bounds
	// voltageScale, when true, drops the core to 1.23 V whenever the
	// chosen step permits it (below 162.2 MHz), as in the last row of the
	// paper's Table 2.
	voltageScale bool

	upCount, downCount int

	// Telemetry counters; nil (no-op) unless Instrument was called.
	telUp, telDown, telHold *telemetry.Counter
}

// Instrument attaches per-decision telemetry counters
// (policy_decisions_total by decision). A nil registry detaches them.
func (g *Governor) Instrument(reg *telemetry.Registry) {
	g.telUp = reg.Counter(telemetry.MPolicyScaleUp)
	g.telDown = reg.Counter(telemetry.MPolicyScaleDown)
	g.telHold = reg.Counter(telemetry.MPolicyHold)
}

// NewGovernor builds a governor. Separate setters may be given for scaling
// up and down ("PAST, Peg-Peg" in Table 2 names the pair).
func NewGovernor(pred Predictor, up, down SpeedSetter, bounds Bounds, voltageScale bool) (*Governor, error) {
	if pred == nil || up == nil || down == nil {
		return nil, fmt.Errorf("policy: governor needs a predictor and two setters")
	}
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	return &Governor{pred: pred, up: up, down: down, bounds: bounds, voltageScale: voltageScale}, nil
}

// MustGovernor is NewGovernor that panics on error, for composing literals
// in tests and experiment tables.
func MustGovernor(pred Predictor, up, down SpeedSetter, bounds Bounds, voltageScale bool) *Governor {
	g, err := NewGovernor(pred, up, down, bounds, voltageScale)
	if err != nil {
		panic(err)
	}
	return g
}

// Name describes the governor in the paper's style, e.g.
// "PAST, peg-peg, 93%-98%".
func (g *Governor) Name() string {
	v := ""
	if g.voltageScale {
		v = ", voltage scaling"
	}
	return fmt.Sprintf("%s, %s-%s, %d%%-%d%%%s",
		g.pred.Name(), g.up.Name(), g.down.Name(),
		g.bounds.Lo/100, g.bounds.Hi/100, v)
}

// Decide observes one quantum's utilization and returns the step and
// voltage to run the next quantum at.
func (g *Governor) Decide(util int, cur cpu.Step) Decision {
	w := g.pred.Observe(util)
	d := Decision{Step: cur, Weighted: w}
	switch {
	case w > g.bounds.Hi:
		d.Step = g.up.Up(cur)
		d.ScaledUp = d.Step != cur
		if d.ScaledUp {
			g.upCount++
		}
	case w < g.bounds.Lo:
		d.Step = g.down.Down(cur)
		d.ScaledDn = d.Step != cur
		if d.ScaledDn {
			g.downCount++
		}
	}
	switch {
	case d.ScaledUp:
		g.telUp.Inc()
	case d.ScaledDn:
		g.telDown.Inc()
	default:
		g.telHold.Inc()
	}
	d.V = voltageFor(g.voltageScale, d.Step)
	return d
}

// OnQuantum implements the kernel's SpeedPolicy interface.
func (g *Governor) OnQuantum(_ sim.Time, util int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	d := g.Decide(util, cur)
	return d.Step, d.V
}

// ScaleCounts reports how many scale-up and scale-down actions the governor
// has taken — the paper notes its best policy "changes clock settings
// frequently", so this is a first-class metric.
func (g *Governor) ScaleCounts() (up, down int) { return g.upCount, g.downCount }

// Reset restores the governor (and its predictor) to the initial state.
func (g *Governor) Reset() {
	g.pred.Reset()
	g.upCount, g.downCount = 0, 0
}

// Constant is the baseline policy: a fixed clock step and voltage,
// corresponding to the "Constant Speed" rows of Table 2.
type Constant struct {
	S cpu.Step
	V cpu.Voltage
}

// OnQuantum implements the kernel's SpeedPolicy interface.
func (c Constant) OnQuantum(_ sim.Time, _ int, _ cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	return c.S, c.V
}

// Name describes the baseline in the paper's style.
func (c Constant) Name() string {
	return fmt.Sprintf("Constant Speed @ %s, %s", c.S, c.V)
}
