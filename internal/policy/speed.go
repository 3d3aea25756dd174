package policy

import "clocksched/internal/cpu"

// SpeedSetter maps a scale-up or scale-down decision onto the SA-1100's
// discrete clock steps. "Deciding how much to scale the processor clock is
// separate from the decision of when to scale" — separate setters may be
// used for the two directions.
type SpeedSetter interface {
	// Up returns the step to use after a scale-up decision at s.
	Up(s cpu.Step) cpu.Step
	// Down returns the step to use after a scale-down decision at s.
	Down(s cpu.Step) cpu.Step
	// Name identifies the setter: "one", "double", or "peg".
	Name() string
}

// One increments or decrements the clock step by one.
type One struct{}

// Up implements SpeedSetter.
func (One) Up(s cpu.Step) cpu.Step { return (s + 1).Clamp() }

// Down implements SpeedSetter.
func (One) Down(s cpu.Step) cpu.Step { return (s - 1).Clamp() }

// Name implements SpeedSetter.
func (One) Name() string { return "one" }

// Double tries to double (or halve) the clock step. Since the lowest clock
// step on the Itsy is zero, the step index is incremented before doubling,
// exactly as the paper describes; halving inverts that mapping.
type Double struct{}

// Up implements SpeedSetter.
func (Double) Up(s cpu.Step) cpu.Step { return ((s + 1) * 2).Clamp() }

// Down implements SpeedSetter.
func (Double) Down(s cpu.Step) cpu.Step {
	down := (s+1)/2 - 1
	if down < cpu.MinStep {
		down = cpu.MinStep
	}
	return down
}

// Name implements SpeedSetter.
func (Double) Name() string { return "double" }

// Peg sets the clock to the highest (or lowest) value.
type Peg struct{}

// Up implements SpeedSetter.
func (Peg) Up(cpu.Step) cpu.Step { return cpu.MaxStep }

// Down implements SpeedSetter.
func (Peg) Down(cpu.Step) cpu.Step { return cpu.MinStep }

// Name implements SpeedSetter.
func (Peg) Name() string { return "peg" }

// SetterByName returns the named speed setter, or false if the name is
// unknown. Command-line tools use it to parse policy specifications.
func SetterByName(name string) (SpeedSetter, bool) {
	switch name {
	case "one":
		return One{}, true
	case "double":
		return Double{}, true
	case "peg":
		return Peg{}, true
	default:
		return nil, false
	}
}

// voltageFor is the core voltage every speed policy pairs with its chosen
// step: 1.23 V when voltage scaling is on and the step allows it, else
// the full 1.5 V.
func voltageFor(voltageScale bool, s cpu.Step) cpu.Voltage {
	if voltageScale && cpu.VoltageOK(s, cpu.VLow) {
		return cpu.VLow
	}
	return cpu.VHigh
}
