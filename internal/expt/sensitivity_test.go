package expt_test

import (
	"math"
	"strings"
	"testing"

	"clocksched/internal/paper"
)

func TestThresholdSensitivity(t *testing.T) {
	cells, err := paper.ThresholdSensitivity(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 { // 5 grids × 2 workloads
		t.Fatalf("%d cells", len(cells))
	}
	// The Section 5.3 claim: no single bound pair is simultaneously the
	// energy-best miss-free choice for every application. Find, per
	// workload, the miss-free cell with the least energy; they must
	// differ, or at least aggressive bounds must miss deadlines somewhere
	// while saving energy elsewhere.
	bestFor := map[string]paper.SensitivityCell{}
	sawMissesSomewhere := false
	for _, c := range cells {
		if c.Misses > 0 {
			sawMissesSomewhere = true
			continue
		}
		cur, ok := bestFor[c.Workload]
		if !ok || c.EnergyJ < cur.EnergyJ {
			bestFor[c.Workload] = c
		}
	}
	if !sawMissesSomewhere {
		t.Error("every bound pair was miss-free on every workload; sensitivity claim untested")
	}
	for w, c := range bestFor {
		t.Logf("best miss-free bounds for %-8s: %d%%-%d%% (%.2f J)", w, c.LoPct, c.HiPct, c.EnergyJ)
	}
	if !strings.Contains(paper.RenderSensitivity(cells), "bounds") {
		t.Error("render missing header")
	}
}

func TestPlayUntilExhaustion(t *testing.T) {
	rows, err := paper.PlayUntilExhaustion(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Played <= 0 {
			t.Errorf("%s played nothing", r.Policy)
		}
		hours := r.Played.Seconds() / 3600
		if hours < 0.5 || hours > 12 {
			t.Errorf("%s playback %.2f h implausible for AAA cells", r.Policy, hours)
		}
	}
	// The lower-power policy plays at least as long.
	if rows[1].AvgPowerW < rows[0].AvgPowerW && rows[1].Played < rows[0].Played {
		t.Errorf("lower average power played less: %+v", rows)
	}
	if !strings.Contains(paper.RenderExhaustion(rows), "playback") {
		t.Error("render missing header")
	}
}

func TestSA2Example(t *testing.T) {
	p := paper.SA2Example()
	// The paper's arithmetic: 1 s and 500 mJ at 600 MHz; 4 s and 160 mJ
	// at 150 MHz.
	if p.FastTime != 1 || p.SlowTime != 4 {
		t.Errorf("times = %v, %v", p.FastTime, p.SlowTime)
	}
	if math.Abs(p.FastEnergy-0.5) > 1e-12 {
		t.Errorf("fast energy = %v, want 0.5 J", p.FastEnergy)
	}
	if math.Abs(p.SlowEnergy-0.16) > 1e-12 {
		t.Errorf("slow energy = %v, want 0.16 J", p.SlowEnergy)
	}
	// "a four-fold savings" (3.125× exactly, which the paper rounds).
	if ratio := p.FastEnergy / p.SlowEnergy; ratio < 3 || ratio > 4 {
		t.Errorf("energy ratio = %v", ratio)
	}
	if !strings.Contains(p.Render(), "600 MHz") {
		t.Error("render missing content")
	}
}
