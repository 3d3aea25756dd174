package kernel_test

import (
	"runtime"
	"testing"

	"clocksched"
)

// TestCellAllocs caps what one whole cell allocates through the public
// facade: a 60 s MPEG run under the paper's best interval policy. The
// quantum step itself allocates nothing (TestQuantumStepAllocs); what is
// left is per-cell setup — the workload, engine, kernel, policy and
// Result, about 64 objects and 10 KB. A cell that kept its power
// timeline, utilization log and formatted deadline names cost ~2.6k
// objects and ~500 KB, so retaining any per-quantum, per-segment or
// per-deadline record on the facade path fails one of the two caps.
func TestCellAllocs(t *testing.T) {
	pol, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clocksched.Config{Workload: clocksched.MPEG, Policy: pol, Seed: 1}
	run := func() {
		if _, err := clocksched.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, run); allocs > 200 {
		t.Errorf("a 60 s MPEG cell allocates %.0f objects, want at most 200", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024; kb > 64 {
		t.Errorf("a 60 s MPEG cell allocates %.0f KB, want at most 64 KB", kb)
	}
}
