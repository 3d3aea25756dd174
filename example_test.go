package clocksched_test

import (
	"fmt"
	"log"
	"time"

	"clocksched"
)

// The simulation is deterministic, so examples print stable output.

// Run the paper's best heuristic policy against the MPEG workload.
func ExampleRun() {
	res, err := clocksched.Run(clocksched.Config{
		Workload: clocksched.MPEG,
		Policy:   clocksched.Policy{Up: clocksched.Peg, Down: clocksched.Peg, LoPercent: 93, HiPercent: 98},
		Seed:     1,
		Duration: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("missed %d of %d deadlines\n", res.Misses, res.Deadlines)
	fmt.Printf("visited 59.0 MHz: %v\n", res.TimeAtMHz[59.0] > 0)
	fmt.Printf("visited 206.4 MHz: %v\n", res.TimeAtMHz[206.4] > 0)
	// Output:
	// missed 0 of 250 deadlines
	// visited 59.0 MHz: true
	// visited 206.4 MHz: true
}

// Compare a constant baseline against an interval policy.
func ExamplePolicy_constant() {
	baseline, err := clocksched.Run(clocksched.Config{
		Workload: clocksched.MPEG,
		Policy:   clocksched.Policy{Constant: true, MHz: 206.4},
		Seed:     1,
		Duration: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	sweet, err := clocksched.Run(clocksched.Config{
		Workload: clocksched.MPEG,
		Policy:   clocksched.Policy{Constant: true, MHz: 132.7},
		Seed:     1,
		Duration: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("132.7 MHz saves energy: %v\n", sweet.EnergyJoules < baseline.EnergyJoules)
	fmt.Printf("and still misses nothing: %v\n", sweet.Misses == 0)
	// Output:
	// 132.7 MHz saves energy: true
	// and still misses nothing: true
}

// Policies are described in the paper's own naming style.
func ExamplePolicy_Name() {
	fmt.Println(clocksched.Policy{Up: clocksched.Peg, Down: clocksched.Peg, LoPercent: 93, HiPercent: 98}.Name())
	fmt.Println(clocksched.Policy{AvgN: 9, Up: clocksched.One, Down: clocksched.One, LoPercent: 50, HiPercent: 70}.Name())
	fmt.Println(clocksched.Policy{Constant: true, MHz: 132.7, LowVoltage: true}.Name())
	// Output:
	// PAST, peg-peg, 93%-98%
	// AVG_9, one-one, 50%-70%
	// Constant @ 132.7MHz, 1.23V
}

// The SA-1100's discrete clock steps.
func ExampleClockStepsMHz() {
	steps := clocksched.ClockStepsMHz()
	fmt.Println(len(steps), "steps from", steps[0], "to", steps[len(steps)-1], "MHz")
	// Output:
	// 11 steps from 59 to 206.4 MHz
}
