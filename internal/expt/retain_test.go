package expt

import (
	"fmt"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/kernel"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// TestDigestMatchesRetained pins the retention contract: a run that keeps
// only its digests measures exactly what a run that keeps the power
// timeline and the utilization log measures — bit for bit, on every
// workload, under a constant clock, an interval governor and the deadline
// scheduler, with the instrument's sample faults off and on.
func TestDigestMatchesRetained(t *testing.T) {
	policies := []struct {
		name string
		make func() (kernel.SpeedPolicy, cpu.Step)
	}{
		{"constant", func() (kernel.SpeedPolicy, cpu.Step) { return nil, cpu.Step(5) }},
		{"past-peg-peg", func() (kernel.SpeedPolicy, cpu.Step) {
			return policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.BestBounds, false), cpu.MaxStep
		}},
		{"deadline", func() (kernel.SpeedPolicy, cpu.Step) { return policy.NewDeadlineScheduler(), cpu.MaxStep }},
	}
	plans := []*fault.Plan{nil, {SampleDropProb: 0.02, SampleGlitchProb: 0.02}}
	slacks := []sim.Duration{0, 33 * sim.Millisecond, sim.Second}

	for _, wl := range []string{"mpeg", "web", "chess", "editor", "rect", "feedback"} {
		for _, pol := range policies {
			for _, plan := range plans {
				name := fmt.Sprintf("%s/%s/faults=%v", wl, pol.name, plan != nil)
				t.Run(name, func(t *testing.T) {
					run := func(retain kernel.Retention) *RunOutcome {
						p, step := pol.make()
						out, err := Run(RunSpec{
							Workload:    wl,
							Seed:        3,
							Duration:    8 * sim.Second,
							Policy:      p,
							InitialStep: step,
							InitialV:    cpu.VHigh,
							Faults:      plan,
							Retain:      retain,
						})
						if err != nil {
							t.Fatal(err)
						}
						return out
					}
					kept, digest := run(kernel.RetainTraces), run(kernel.RetainDigests)

					if kept.Workload.Metrics().Count() == 0 && wl != "rect" {
						t.Fatal("no deadlines recorded; the comparison would be vacuous")
					}
					if n := len(digest.Kernel.UtilLog()); n != 0 {
						t.Errorf("digest run kept %d utilization samples", n)
					}
					if n := len(digest.Kernel.Recorder().Points()); n > 3 {
						t.Errorf("digest run kept %d power change-points", n)
					}

					kd, dd := kept.DAQ, digest.DAQ
					kd.Config.Faults, dd.Config.Faults = nil, nil
					if kd != dd {
						t.Errorf("DAQ digests differ:\nretained %+v\n  digest %+v", kd, dd)
					}
					if kept.EnergyJ != digest.EnergyJ || kept.AvgPowerW != digest.AvgPowerW ||
						kept.MeanUtil != digest.MeanUtil {
						t.Errorf("energy/power/util differ: %v/%v/%v vs %v/%v/%v",
							kept.EnergyJ, kept.AvgPowerW, kept.MeanUtil,
							digest.EnergyJ, digest.AvgPowerW, digest.MeanUtil)
					}
					if kept.Faults != digest.Faults {
						t.Errorf("fault tallies differ: %+v vs %+v", kept.Faults, digest.Faults)
					}
					if kq, dq := kept.Kernel.Quanta(), digest.Kernel.Quanta(); kq != dq || kq != len(kept.Kernel.UtilLog()) {
						t.Errorf("quanta: retained %d (log %d), digest %d", kq, len(kept.Kernel.UtilLog()), dq)
					}

					kc, dc := kept.Workload.Metrics(), digest.Workload.Metrics()
					if kc.Count() != dc.Count() {
						t.Errorf("Count: retained %d, digest %d", kc.Count(), dc.Count())
					}
					for _, s := range slacks {
						if k, d := kc.MissCount(s), dc.MissCount(s); k != d {
							t.Errorf("MissCount(%v): retained %d, digest %d", s, k, d)
						}
					}
					if kc.MaxLateness() != dc.MaxLateness() {
						t.Errorf("MaxLateness: %v vs %v", kc.MaxLateness(), dc.MaxLateness())
					}
					if kc.Desync("frame", "audio") != dc.Desync("frame", "audio") {
						t.Errorf("Desync: %v vs %v", kc.Desync("frame", "audio"), dc.Desync("frame", "audio"))
					}
				})
			}
		}
	}
}
