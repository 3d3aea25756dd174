package paper

import (
	"clocksched"
	"clocksched/internal/fleet"
)

// FleetEnv runs the standing fleet experiment — fleet.ExperimentSpec's
// seeded population of the given size — through the environment's
// executor and reduces it to the population summary. The feasibility
// pre-pass removes hopeless pairings before anything runs; a population
// whose every pairing is infeasible never reaches the executor.
func FleetEnv(env Env, devices int) (*fleet.Population, error) {
	spec, err := fleet.ExperimentSpec(env.Seed, devices)
	if err != nil {
		return nil, err
	}
	plan, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	res := &clocksched.SweepResult{}
	if len(plan.Cells) > 0 {
		if res, err = env.sweep(clocksched.SweepConfig{Cells: plan.Cells}); err != nil {
			return nil, err
		}
	}
	return fleet.Reduce(plan, res)
}
