package expt

import (
	"fmt"
	"math"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// TestWorkloadPolicyMatrix runs every workload under a representative set
// of policies and checks the cross-cutting invariants on each combination:
// energy is positive and equals average power × time, utilization stays in
// range, residency accounts for the whole run, and the run is
// deterministic.
// table2Slack is the paper's perceptual slack for MPEG deadlines: half a
// frame, the public API's default DeadlineSlack.
const table2Slack = 33 * sim.Millisecond

func TestWorkloadPolicyMatrix(t *testing.T) {
	policies := map[string]func() RunSpec{
		"constant-max": func() RunSpec {
			return RunSpec{InitialStep: cpu.MaxStep}
		},
		"constant-min": func() RunSpec {
			return RunSpec{InitialStep: cpu.MinStep}
		},
		"past-peg-peg": func() RunSpec {
			return RunSpec{
				Policy: policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{},
					policy.BestBounds, false),
				InitialStep: cpu.MaxStep,
			}
		},
		"avg9-one-one": func() RunSpec {
			return RunSpec{
				Policy: policy.MustGovernor(policy.MustAvgN(9), policy.One{}, policy.One{},
					policy.PeringBounds, true),
				InitialStep: cpu.MaxStep,
			}
		},
		"longshort-double": func() RunSpec {
			return RunSpec{
				Policy: policy.MustGovernor(policy.NewLongShort(), policy.Double{}, policy.Double{},
					policy.PeringBounds, false),
				InitialStep: cpu.MaxStep,
			}
		},
		"cycle-peg": func() RunSpec {
			return RunSpec{
				Policy: policy.MustGovernor(policy.NewCycle(), policy.Peg{}, policy.Peg{},
					policy.PeringBounds, false),
				InitialStep: cpu.MaxStep,
			}
		},
		"deadline": func() RunSpec {
			return RunSpec{Policy: policy.NewDeadlineScheduler(), InitialStep: cpu.MaxStep}
		},
		"proportional": func() RunSpec {
			prop, err := policy.NewProportional(policy.MustAvgN(3), 7000, true)
			if err != nil {
				panic(err)
			}
			return RunSpec{Policy: prop, InitialStep: cpu.MaxStep}
		},
	}
	workloads := []string{"mpeg", "web", "chess", "editor", "rect"}
	const length = 5 * sim.Second

	for _, w := range workloads {
		for name, mk := range policies {
			t.Run(fmt.Sprintf("%s/%s", w, name), func(t *testing.T) {
				spec := mk()
				spec.Workload = w
				spec.Seed = 1
				spec.Duration = length
				out, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if out.EnergyJ <= 0 {
					t.Error("non-positive energy")
				}
				wantAvg := out.EnergyJ / length.Seconds()
				if math.Abs(out.AvgPowerW-wantAvg)/wantAvg > 0.001 {
					t.Errorf("power %v inconsistent with energy %v", out.AvgPowerW, out.EnergyJ)
				}
				if out.MeanUtil < 0 || out.MeanUtil > 1 {
					t.Errorf("utilization %v out of range", out.MeanUtil)
				}
				var res sim.Duration
				for _, d := range out.Kernel.Residency() {
					res += d
				}
				if res != length {
					t.Errorf("residency sums to %v, want %v", res, length)
				}
				for _, u := range out.Kernel.UtilLog() {
					if u.PP10K < 0 || u.PP10K > 10000 {
						t.Fatalf("quantum utilization %d out of range", u.PP10K)
					}
					if !u.StepAt.Valid() {
						t.Fatalf("invalid step %d in log", int(u.StepAt))
					}
				}
				// Determinism: same spec, same energy.
				spec2 := mk()
				spec2.Workload = w
				spec2.Seed = 1
				spec2.Duration = length
				again, err := Run(spec2)
				if err != nil {
					t.Fatal(err)
				}
				if again.EnergyJ != out.EnergyJ {
					t.Errorf("rerun energy %v != %v", again.EnergyJ, out.EnergyJ)
				}
			})
		}
	}
}

// TestPredictorZooOnMPEG runs every predictor in the library through the
// governor on MPEG and reports the paper's overall conclusion as an
// invariant: none of the utilization-inferring heuristics can both avoid
// deadline misses and reach the energy of the ideal constant setting.
func TestPredictorZooOnMPEG(t *testing.T) {
	ideal, err := Run(RunSpec{Workload: "mpeg", Seed: 1,
		Duration: 20 * sim.Second, InitialStep: cpu.Step(5)})
	if err != nil {
		t.Fatal(err)
	}

	preds := []func() policy.Predictor{
		func() policy.Predictor { return policy.NewPAST() },
		func() policy.Predictor { return policy.MustAvgN(3) },
		func() policy.Predictor { return policy.MustAvgN(9) },
		func() policy.Predictor { return policy.MustSimpleWindow(4) },
		func() policy.Predictor { return policy.NewLongShort() },
		func() policy.Predictor { return policy.NewCycle() },
		func() policy.Predictor { return policy.NewPattern() },
		func() policy.Predictor { return policy.NewPeak() },
	}
	for _, mk := range preds {
		pred := mk()
		name := pred.Name()
		gov := policy.MustGovernor(pred, policy.Peg{}, policy.Peg{}, policy.BestBounds, false)
		out, err := Run(RunSpec{Workload: "mpeg", Seed: 1, Duration: 20 * sim.Second,
			Policy: gov, InitialStep: cpu.MaxStep})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		misses := out.Workload.Metrics().MissCount(table2Slack)
		if misses == 0 && out.EnergyJ <= ideal.EnergyJ {
			t.Errorf("%s beat the ideal constant setting (%.2f ≤ %.2f J) with no misses — "+
				"that contradicts the paper's central finding; check the harness",
				name, out.EnergyJ, ideal.EnergyJ)
		}
		t.Logf("%-12s energy %6.2f J, misses %3d (ideal constant: %.2f J)",
			name, out.EnergyJ, misses, ideal.EnergyJ)
	}
}
