package expt_test

import (
	"strings"
	"testing"

	"clocksched/internal/cpu"

	"clocksched/internal/paper"
)

func TestDeadlineComparison(t *testing.T) {
	rows, err := paper.DeadlineComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	const (
		constant = 0
		best     = 1
		deadline = 2
		deadVS   = 3
	)
	// Nothing misses deadlines.
	for _, r := range rows {
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Policy, r.Misses)
		}
	}
	// The deadline scheduler beats both the constant baseline and the
	// best heuristic: application-supplied deadlines are worth real
	// energy, which is why the paper's future work pointed there.
	if !(rows[deadline].EnergyJ < rows[best].EnergyJ) {
		t.Errorf("deadline (%0.2f J) not below best heuristic (%0.2f J)",
			rows[deadline].EnergyJ, rows[best].EnergyJ)
	}
	if !(rows[best].EnergyJ < rows[constant].EnergyJ) {
		t.Errorf("best heuristic (%0.2f J) not below constant (%0.2f J)",
			rows[best].EnergyJ, rows[constant].EnergyJ)
	}
	// Voltage scaling helps the deadline scheduler (it actually lives
	// below 162.2 MHz, unlike peg-peg).
	if !(rows[deadVS].EnergyJ < rows[deadline].EnergyJ) {
		t.Errorf("voltage scaling did not help: %0.2f vs %0.2f J",
			rows[deadVS].EnergyJ, rows[deadline].EnergyJ)
	}
	// The deadline scheduler settles near the clip's ideal speed rather
	// than slamming between the extremes.
	if rows[deadline].ModalMHz < 118 || rows[deadline].ModalMHz > 162.2 {
		t.Errorf("deadline scheduler modal clock = %.1f MHz, want near the 132.7 ideal",
			rows[deadline].ModalMHz)
	}
	if rows[best].ModalMHz != 206.4 && rows[best].ModalMHz != 59.0 {
		t.Errorf("peg-peg modal clock = %.1f MHz, want an extreme", rows[best].ModalMHz)
	}
	text := paper.RenderDeadlineComparison(rows)
	if !strings.Contains(text, "DEADLINE") {
		t.Error("render missing rows")
	}
	t.Logf("\n%s", text)
}

func TestMartinOptimumInterior(t *testing.T) {
	res, err := paper.MartinOptimum(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// With a heavy-load exponent the optimum is interior: Martin's
	// "lower bound on clock frequency".
	if res.Best == cpu.MinStep || res.Best == cpu.MaxStep {
		t.Errorf("optimum at %v; want an interior step", res.Best)
	}
	// Lifetime decreases with clock speed throughout.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].LifetimeH >= res.Rows[i-1].LifetimeH {
			t.Errorf("lifetime not decreasing at %v", res.Rows[i].Step)
		}
	}
	if !strings.Contains(res.Render(), "optimum") {
		t.Error("render missing optimum marker")
	}
}

func TestMartinOptimumLimits(t *testing.T) {
	// A nearly ideal battery (k→1) favours the fastest clock: capacity
	// barely shrinks, so more cycles per hour wins.
	ideal, err := paper.MartinOptimum(1.05)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Best != cpu.MaxStep {
		t.Errorf("k=1.05 optimum at %v, want the fastest step", ideal.Best)
	}
	// A brutal rate-capacity effect favours the slowest clock.
	steep, err := paper.MartinOptimum(4.0)
	if err != nil {
		t.Fatal(err)
	}
	if steep.Best != cpu.MinStep {
		t.Errorf("k=4 optimum at %v, want the slowest step", steep.Best)
	}
}

func TestMartinOptimumValidation(t *testing.T) {
	if _, err := paper.MartinOptimum(0.5); err == nil {
		t.Error("exponent below 1 accepted")
	}
}
