package policy

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// Proportional is the speed-setting idea sketched (and then dismantled) at
// the start of the paper's Section 5.2: predict the coming interval's busy
// fraction and "set the clock speed to insure enough busy cycles" — pick
// the slowest step whose frequency covers the predicted demand at a target
// utilization. It is the ancestor of Linux's ondemand governor. The paper's
// Figure 5 shows why the naive version responds poorly; this implementation
// lets that pathology be reproduced in closed loop with any predictor.
//
// Note the saturation blindness the paper attributes to Weiser's PAST: with
// a 100% target the governor can never scale up, because observed
// utilization cannot exceed 100% and therefore never demands more than the
// current frequency. A target below 100% is what gives the governor
// headroom to discover pent-up demand, one ratio step at a time.
type Proportional struct {
	pred Predictor
	// TargetUtil is the utilization the governor aims to run at, PP10K:
	// demanded kHz = current kHz × predicted / target.
	TargetUtil int
	// VoltageScale drops the core to 1.23 V when the chosen step allows.
	VoltageScale bool

	changes int
}

// NewProportional builds the governor. Target must be in (0, FullUtil].
func NewProportional(pred Predictor, targetUtil int, voltageScale bool) (*Proportional, error) {
	if pred == nil {
		return nil, fmt.Errorf("policy: proportional governor needs a predictor")
	}
	if targetUtil <= 0 || targetUtil > FullUtil {
		return nil, fmt.Errorf("policy: bad target utilization %d", targetUtil)
	}
	return &Proportional{pred: pred, TargetUtil: targetUtil, VoltageScale: voltageScale}, nil
}

// OnQuantum implements the kernel's SpeedPolicy interface.
func (p *Proportional) OnQuantum(_ sim.Time, util int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	w := p.pred.Observe(util)
	// Busy cycles observed ≈ w × current frequency; demand the slowest
	// step that runs them at the target utilization.
	needKHz := int64(w) * cur.KHz() / int64(p.TargetUtil)
	step := cpu.StepForKHz(needKHz)
	if step != cur {
		p.changes++
	}
	return step, voltageFor(p.VoltageScale, step)
}

// Changes reports how many step changes the governor has made.
func (p *Proportional) Changes() int { return p.changes }

// Name identifies the governor.
func (p *Proportional) Name() string {
	return fmt.Sprintf("PROPORTIONAL(%s, %d%%)", p.pred.Name(), p.TargetUtil/100)
}
