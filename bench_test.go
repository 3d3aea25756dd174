package clocksched

// Ablation and machinery benchmarks; the per-table and per-figure
// benchmarks live next to the experiments in internal/paper. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationSpeedSetters compares the three speed setters under the
// PAST predictor on MPEG — the paper's observation that most policy
// combinations behave equivalently (and poorly).
func BenchmarkAblationSpeedSetters(b *testing.B) {
	for _, setter := range []SpeedSetter{One, Double, Peg} {
		b.Run(string(setter), func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workload: MPEG,
					Policy:   Policy{AvgN: 0, Up: setter, Down: setter, LoPercent: 50, HiPercent: 70},
					Duration: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy = res.EnergyJoules
			}
			b.ReportMetric(energy, "joules")
		})
	}
}

// BenchmarkAblationAvgN sweeps the predictor decay, reporting the lag-driven
// energy/stability tradeoff.
func BenchmarkAblationAvgN(b *testing.B) {
	for _, n := range []int{0, 3, 9} {
		b.Run(policy.MustAvgN(n).Name(), func(b *testing.B) {
			var changes int
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workload: MPEG,
					Policy:   Policy{AvgN: n, Up: Peg, Down: Peg, LoPercent: 50, HiPercent: 70},
					Duration: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				changes = res.ClockChanges
			}
			b.ReportMetric(float64(changes), "clock-changes")
		})
	}
}

// BenchmarkAblationOfflineBaselines times the Weiser trace algorithms on a
// long synthetic trace.
func BenchmarkAblationOfflineBaselines(b *testing.B) {
	rng := sim.NewRNG(1)
	util := make([]float64, 100_000)
	for i := range util {
		util[i] = rng.Float64()
	}
	b.Run("OPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.OptSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FUTURE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.FutureSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PAST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := policy.PastSpeeds(util, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- machinery benchmarks ---

// BenchmarkSimulatedSecond measures raw simulation throughput: one second
// of MPEG-on-Itsy virtual time per iteration.
func BenchmarkSimulatedSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Workload: MPEG, Duration: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernorDecide measures the per-quantum cost of the policy
// module itself — what the real kernel would pay every 10 ms.
func BenchmarkGovernorDecide(b *testing.B) {
	gov := policy.MustGovernor(policy.MustAvgN(9), policy.One{}, policy.One{},
		policy.PeringBounds, false)
	cur := cpu.Step(5)
	for i := 0; i < b.N; i++ {
		d := gov.Decide(i%10001, cur)
		cur = d.Step
	}
}

// BenchmarkBurstDuration measures the cycle-accounting hot path.
func BenchmarkBurstDuration(b *testing.B) {
	burst := cpu.Burst{Core: 4_000_000, Mem: 143_000, Cache: 40_000}
	var total sim.Duration
	for i := 0; i < b.N; i++ {
		total += burst.Duration(cpu.Step(i % cpu.NumSteps))
	}
	_ = total
}

// BenchmarkSweepTable2 measures the full Table 2 grid (50 cells of
// 60-second MPEG) through the public batch API, serially and across the
// worker pool. The /serial vs /parallel ratio is the sweep engine's
// speedup on this machine.
func BenchmarkSweepTable2(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			res, err := Sweep(context.Background(), table2Sweep(workers))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Cells) != 50 {
				b.Fatalf("%d cells", len(res.Cells))
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkSweepCached measures a fully warm cache: every cell served by
// decode instead of simulation.
func BenchmarkSweepCached(b *testing.B) {
	cache, err := NewSweepCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	cfg := table2Sweep(1)
	cfg.Cache = cache
	if _, err := Sweep(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
