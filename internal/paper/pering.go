package paper

import (
	"fmt"
	"strings"
	"time"

	"clocksched/internal/battery"
	"clocksched/internal/cpu"
	"clocksched/internal/daq"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
	"clocksched/internal/workload"
)

// This file reproduces the methodological comparison of Section 3: Pering
// et al. "assume that frames of an MPEG video can be dropped and present
// results which combine energy savings vs. frame rates", whereas the paper
// insists on inelastic constraints. PeringTradeoff runs the drop-tolerant
// player across the clock steps and reports the two-dimensional metric the
// paper chose not to adopt — making the contrast measurable.

// PeringRow is one constant clock setting under the drop-tolerant player.
type PeringRow struct {
	Step    cpu.Step
	EnergyJ float64
	// FrameRate is the achieved display rate in frames/s (15 nominal).
	FrameRate float64
	// DropRate is the fraction of frames skipped.
	DropRate float64
}

// PeringTradeoff sweeps all clock steps with DropLateFrames set over a 30 s
// clip.
func PeringTradeoff(seed uint64) ([]PeringRow, error) {
	const length = 30 * sim.Second
	rows := make([]PeringRow, 0, cpu.NumSteps)
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		cfg := workload.DefaultMPEGConfig()
		cfg.Length = length
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.DropLateFrames = true
		m, err := workload.NewMPEG(cfg)
		if err != nil {
			return nil, err
		}
		eng := &sim.Engine{}
		kcfg := kernel.DefaultConfig()
		kcfg.InitialStep = s
		k, err := kernel.New(eng, kcfg)
		if err != nil {
			return nil, err
		}
		if err := m.Install(k); err != nil {
			return nil, err
		}
		if err := k.Run(length); err != nil {
			return nil, err
		}
		cap, err := daq.Sample(k.Recorder(), 0, length, daq.DefaultConfig())
		if err != nil {
			return nil, err
		}
		totalFrames := int(length.Seconds()) * cfg.FPS
		shown := totalFrames - m.DroppedFrames()
		rows = append(rows, PeringRow{
			Step:      s,
			EnergyJ:   cap.Energy(),
			FrameRate: float64(shown) / length.Seconds(),
			DropRate:  float64(m.DroppedFrames()) / float64(totalFrames),
		})
	}
	return rows, nil
}

// RenderPeringTradeoff prints the sweep.
func RenderPeringTradeoff(rows []PeringRow) string {
	var b strings.Builder
	b.WriteString("Section 3 contrast: energy vs frame rate under Pering's elastic assumption (MPEG, 30s)\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %10s\n", "Clock", "energy(J)", "frames/s", "dropped")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %12.1f %9.1f%%\n",
			r.Step, r.EnergyJ, r.FrameRate, r.DropRate*100)
	}
	b.WriteString("(the paper rejects this two-dimensional metric; its own runs treat every frame as mandatory)\n")
	return b.String()
}

// PlaybackRow is one policy's MPEG playback endurance on batteries.
type PlaybackRow struct {
	Policy string
	// AvgPowerW is the measured average system power during playback.
	AvgPowerW float64
	// Hours is how long a pair of AAA alkaline cells sustains it.
	Hours float64
}

// PlaybackLifetime combines the measured average playback power of each
// Table 2 configuration with the battery model: how many hours of MPEG a
// pair of AAA cells actually buys under each policy. The heavy-load Peukert
// exponent (2.0, see MartinOptimum) applies because playback draws two
// orders of magnitude more than idle. The five 30-second playback cells run
// through the environment's executor.
func PlaybackLifetime(env Env) ([]PlaybackRow, error) {
	cell, err := battery.NewPeukert(3.0, 2.0, 0.05, sim.FromSeconds(1.1/0.05*3600))
	if err != nil {
		return nil, err
	}
	grid := Table2Config(env.Seed)
	grid.Seeds = grid.Seeds[:1]
	grid.Duration = 30 * time.Second
	res, err := env.sweep(grid)
	if err != nil {
		return nil, err
	}
	out := make([]PlaybackRow, 0, len(table2Policies))
	for i, c := range table2Policies {
		power := res.Cells[i].Result.AvgPowerWatts
		life, err := cell.Lifetime(power)
		if err != nil {
			return nil, err
		}
		out = append(out, PlaybackRow{
			Policy:    c.name,
			AvgPowerW: power,
			Hours:     life.Seconds() / 3600,
		})
	}
	return out, nil
}

// RenderPlaybackLifetime prints the endurance table.
func RenderPlaybackLifetime(rows []PlaybackRow) string {
	var b strings.Builder
	b.WriteString("MPEG playback endurance on 2×AAA alkaline (Peukert k=2.0)\n")
	fmt.Fprintf(&b, "%-78s %9s %8s\n", "Policy", "power(W)", "hours")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-78s %9.3f %8.2f\n", r.Policy, r.AvgPowerW, r.Hours)
	}
	return b.String()
}
