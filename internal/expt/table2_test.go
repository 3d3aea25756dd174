package expt_test

import (
	"math"
	"strings"
	"testing"

	"clocksched/internal/paper"
)

// TestTable2Shape verifies the paper's headline result structure: the
// energy ordering across the five configurations, zero missed deadlines
// everywhere, the small-but-real saving of the best heuristic policy, and
// tight confidence intervals.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2 runs 50 one-minute simulations")
	}
	rows, err := paper.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	const (
		c206   = 0 // constant 206.4 MHz, 1.5 V
		c132   = 1 // constant 132.7 MHz, 1.5 V
		c132lv = 2 // constant 132.7 MHz, 1.23 V
		best   = 3 // PAST peg-peg 98/93
		bestVS = 4 // same + voltage scaling
	)

	// No configuration misses deadlines: all are usable, per the paper.
	for _, r := range rows {
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Algorithm, r.Misses)
		}
	}

	// Energy ordering: 132.7 beats 206.4; dropping the voltage beats both.
	if !(rows[c132].Energy.Mean < rows[c206].Energy.Mean) {
		t.Errorf("constant 132.7 (%v) not below constant 206.4 (%v)",
			rows[c132].Energy, rows[c206].Energy)
	}
	if !(rows[c132lv].Energy.Mean < rows[c132].Energy.Mean) {
		t.Errorf("1.23V (%v) not below 1.5V (%v)", rows[c132lv].Energy, rows[c132].Energy)
	}

	// The best heuristic saves a small but significant amount vs constant
	// full speed — its CI upper bound sits below the 206.4 MHz CI lower
	// bound, but it cannot touch the constant-132.7 ideal.
	if !(rows[best].Energy.High < rows[c206].Energy.Low) {
		t.Errorf("best policy (%v) not significantly below constant 206.4 (%v)",
			rows[best].Energy, rows[c206].Energy)
	}
	if !(rows[best].Energy.Mean > rows[c132].Energy.Mean) {
		t.Errorf("best policy (%v) implausibly beats the 132.7 MHz ideal (%v)",
			rows[best].Energy, rows[c132].Energy)
	}

	// Voltage scaling on top of peg-peg yields no meaningful change —
	// the policy spends little time below 162.2 MHz, so the means sit
	// within 1% of each other (the paper found no statistical decrease).
	if diff := math.Abs(rows[bestVS].Energy.Mean-rows[best].Energy.Mean) /
		rows[best].Energy.Mean; diff > 0.01 {
		t.Errorf("voltage scaling changed energy by %.2f%%: %v vs %v",
			diff*100, rows[bestVS].Energy, rows[best].Energy)
	}

	// The paper: "the 95% confidence interval of the energy [was] less
	// than 0.7% of the mean energy."
	for _, r := range rows {
		if rel := r.Energy.RelativeWidth(); rel > 0.007 {
			t.Errorf("%s CI half-width %.3f%% of mean, want < 0.7%%", r.Algorithm, rel*100)
		}
	}

	// The best policy changes clock settings frequently.
	if rows[best].SpeedChanges < 100 {
		t.Errorf("best policy made only %.0f clock changes per minute", rows[best].SpeedChanges)
	}
	// Constant policies never change the clock.
	for _, i := range []int{c206, c132, c132lv} {
		if rows[i].SpeedChanges != 0 {
			t.Errorf("%s changed the clock %.0f times", rows[i].Algorithm, rows[i].SpeedChanges)
		}
	}

	text := paper.RenderTable2(rows)
	if !strings.Contains(text, "206.4") || !strings.Contains(text, "Voltage Scaling") {
		t.Error("render missing rows")
	}
	t.Logf("\n%s", text)
}
