package paper

import (
	"fmt"
	"strings"

	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/policy"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// DVSRow is one policy's energy on both processor models.
type DVSRow struct {
	Policy string
	// ItsyJ is the energy on the real Itsy model (fixed 1.5 V core, with
	// the limited 1.23 V option unused here for a clean comparison).
	ItsyJ float64
	// DVSJ is the energy on the idealized voltage-scaling core.
	DVSJ float64
	// Misses counts deadline misses (identical on both models — the
	// timing model does not change, only the wattage).
	Misses int
}

// IdealDVSComparison reruns the central MPEG comparison on the idealized
// voltage-scaling processor of Section 2.1. On the Itsy, energy per cycle
// is constant at fixed voltage, so running slower barely pays; with a core
// whose voltage tracks frequency, energy per cycle falls quadratically and
// the slow-and-steady schedules the paper's heuristics cannot find become
// hugely valuable — quantifying how much the broken policies will matter
// on the hardware the paper says is coming. The power-model override has
// no public Config form, so the runs go to the single-cell runner directly;
// misses count at the paper's 33 ms perceptual slack.
func IdealDVSComparison(seed uint64) ([]DVSRow, error) {
	itsy := power.DefaultModel()
	dvs := power.IdealDVSModel()

	type cfg struct {
		name string
		spec func() expt.RunSpec
	}
	configs := []cfg{
		{"Constant 206.4 MHz", func() expt.RunSpec {
			return expt.RunSpec{InitialStep: cpu.MaxStep}
		}},
		{"Constant 132.7 MHz (clip ideal)", func() expt.RunSpec {
			return expt.RunSpec{InitialStep: cpu.Step(5)}
		}},
		{"PAST, peg-peg, 93%-98%", func() expt.RunSpec {
			return expt.RunSpec{
				Policy: policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
					policy.BestBounds, false),
				InitialStep: cpu.MaxStep,
			}
		}},
		{"DEADLINE", func() expt.RunSpec {
			return expt.RunSpec{Policy: policy.NewDeadlineScheduler(), InitialStep: cpu.MaxStep}
		}},
	}

	rows := make([]DVSRow, 0, len(configs))
	for _, c := range configs {
		row := DVSRow{Policy: c.name}
		for i, m := range []*power.Model{&itsy, &dvs} {
			spec := c.spec()
			spec.Workload = "mpeg"
			spec.Seed = seed
			spec.Duration = 30 * sim.Second
			spec.Model = m
			out, err := expt.Run(spec)
			if err != nil {
				return nil, fmt.Errorf("ideal DVS %q: %w", c.name, err)
			}
			if i == 0 {
				row.ItsyJ = out.EnergyJ
			} else {
				row.DVSJ = out.EnergyJ
			}
			row.Misses += out.Workload.Metrics().MissCount(33 * sim.Millisecond)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderIdealDVS prints the comparison with per-model savings.
func RenderIdealDVS(rows []DVSRow) string {
	var b strings.Builder
	b.WriteString("Projection: the same policies on an ideal voltage-scaling core (MPEG, 30s)\n")
	fmt.Fprintf(&b, "%-34s %10s %12s %8s\n", "Policy", "Itsy (J)", "ideal DVS(J)", "misses")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %10.2f %12.2f %8d\n", r.Policy, r.ItsyJ, r.DVSJ, r.Misses)
	}
	if len(rows) >= 2 {
		itsySave := (rows[0].ItsyJ - rows[1].ItsyJ) / rows[0].ItsyJ * 100
		dvsSave := (rows[0].DVSJ - rows[1].DVSJ) / rows[0].DVSJ * 100
		fmt.Fprintf(&b, "running at the clip's ideal speed saves %.0f%% on the Itsy "+
			"but %.0f%% on the DVS core —\nthe broken heuristics matter far more "+
			"on the hardware that was coming.\n", itsySave, dvsSave)
	}
	return b.String()
}
