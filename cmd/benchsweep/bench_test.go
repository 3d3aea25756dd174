package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"clocksched/internal/fleet"
)

// BenchmarkSweepFleet prices the fleet leg's 500-device population through
// the fleet engine on one worker and on NumCPU workers. Its cells are 2 s
// sessions, so it measures the per-cell fixed costs that the Table 2
// benchmarks' long cells amortize: workload set-up, trace install, policy
// build and the pool's hand-off.
//
//	go test -run '^$' -bench SweepFleet ./cmd/benchsweep/
func BenchmarkSweepFleet(b *testing.B) {
	_, plan, err := fleetPlan()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.RunPlan(context.Background(), plan, fleet.RunConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(plan.Cells))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
