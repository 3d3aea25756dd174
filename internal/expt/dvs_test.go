package expt_test

import (
	"strings"
	"testing"

	"clocksched/internal/paper"
)

func TestIdealDVSComparison(t *testing.T) {
	rows, err := paper.IdealDVSComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	const (
		c206     = 0
		c132     = 1
		best     = 2
		deadline = 3
	)
	for _, r := range rows {
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Policy, r.Misses)
		}
		if r.ItsyJ <= 0 || r.DVSJ <= 0 {
			t.Errorf("%s has non-positive energy", r.Policy)
		}
		// The DVS core never uses more energy than the fixed-voltage
		// core: every sub-maximum step runs at a lower voltage.
		if r.DVSJ > r.ItsyJ+1e-9 {
			t.Errorf("%s: DVS energy %v above Itsy energy %v", r.Policy, r.DVSJ, r.ItsyJ)
		}
	}
	relSave := func(j0, j1 float64) float64 { return (j0 - j1) / j0 }
	// The headline: slowing to the clip's ideal speed pays off several
	// times more on the DVS core than on the Itsy.
	itsySave := relSave(rows[c206].ItsyJ, rows[c132].ItsyJ)
	dvsSave := relSave(rows[c206].DVSJ, rows[c132].DVSJ)
	// (The whole-system numbers include the fixed peripheral floor, which
	// dilutes the quadratic core effect; ~1.8× is the honest outcome.)
	if dvsSave < 1.4*itsySave {
		t.Errorf("DVS saving %.1f%% not well above Itsy saving %.1f%%",
			dvsSave*100, itsySave*100)
	}
	// The deadline scheduler, which actually finds the slow schedule,
	// widens its lead over the oscillating heuristic on DVS hardware.
	heuristicGapItsy := rows[best].ItsyJ - rows[deadline].ItsyJ
	heuristicGapDVS := rows[best].DVSJ - rows[deadline].DVSJ
	if heuristicGapDVS <= heuristicGapItsy {
		t.Errorf("deadline-vs-heuristic gap did not widen on DVS: %v vs %v",
			heuristicGapDVS, heuristicGapItsy)
	}
	text := paper.RenderIdealDVS(rows)
	if !strings.Contains(text, "ideal DVS") {
		t.Error("render missing header")
	}
	t.Logf("\n%s", text)
}
