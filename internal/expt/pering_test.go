package expt_test

import (
	"strings"
	"testing"

	"clocksched/internal/cpu"

	"clocksched/internal/paper"
)

func TestPeringTradeoffShape(t *testing.T) {
	rows, err := paper.PeringTradeoff(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(rows))
	}
	// At the slow end the drop-tolerant player sheds frames; at and above
	// 132.7 MHz it shows them all.
	if rows[0].DropRate <= 0.1 {
		t.Errorf("drop rate at 59MHz = %.2f, want substantial", rows[0].DropRate)
	}
	for i := 5; i < len(rows); i++ { // 132.7 MHz and up
		if rows[i].DropRate != 0 {
			t.Errorf("drop rate at %v = %.3f, want 0", rows[i].Step, rows[i].DropRate)
		}
		if rows[i].FrameRate < 14.9 {
			t.Errorf("frame rate at %v = %.1f, want ≈15", rows[i].Step, rows[i].FrameRate)
		}
	}
	// Frame rate never decreases with clock speed.
	for i := 1; i < len(rows); i++ {
		if rows[i].FrameRate < rows[i-1].FrameRate-0.2 {
			t.Errorf("frame rate fell from %v to %v", rows[i-1].Step, rows[i].Step)
		}
	}
	// The elastic metric's seduction: the slowest setting uses the least
	// energy — by sacrificing most of the video.
	if rows[0].EnergyJ >= rows[len(rows)-1].EnergyJ {
		t.Errorf("slow end energy %.2f not below fast end %.2f",
			rows[0].EnergyJ, rows[len(rows)-1].EnergyJ)
	}
	text := paper.RenderPeringTradeoff(rows)
	if !strings.Contains(text, "frames/s") {
		t.Error("render missing header")
	}
}

func TestPlaybackLifetime(t *testing.T) {
	rows, err := paper.PlaybackLifetime(paper.DefaultEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Endurance ordering mirrors the energy ordering: the 1.23 V sweet
	// spot lasts longest, constant full speed shortest (of the constants).
	if !(rows[2].Hours > rows[1].Hours && rows[1].Hours > rows[0].Hours) {
		t.Errorf("endurance ordering violated: %.2f, %.2f, %.2f h",
			rows[0].Hours, rows[1].Hours, rows[2].Hours)
	}
	// Everything is within plausible pocket-computer bounds.
	for _, r := range rows {
		if r.Hours < 0.2 || r.Hours > 24 {
			t.Errorf("%s endurance %.2f h implausible", r.Policy, r.Hours)
		}
		if r.AvgPowerW < 0.5 || r.AvgPowerW > 2.5 {
			t.Errorf("%s power %.3f W implausible", r.Policy, r.AvgPowerW)
		}
	}
	if !strings.Contains(paper.RenderPlaybackLifetime(rows), "hours") {
		t.Error("render missing header")
	}
}
