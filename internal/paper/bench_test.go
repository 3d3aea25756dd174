package paper

// One benchmark per table and figure of the paper's evaluation, each
// regenerating the corresponding result from scratch. Run with:
//
//	go test -bench=. -benchmem ./internal/paper/
//
// The Benchmark*/b.N loops re-run the full deterministic simulation, so
// ns/op reports how long one complete reproduction takes.

import "testing"

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range FigureWorkloads {
			if _, err := Figure3(w, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range FigureWorkloads {
			if _, err := Figure4(w, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Figure5()
		if len(res.GoingIdle) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table1()
		if rows[6].Weighted != 5217 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure6(9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Figure8(DefaultEnv(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure9(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("Table 2 mismatch")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table3()
		if rows[10].MemCycles != 20 {
			b.Fatal("Table 3 mismatch")
		}
	}
}

func BenchmarkBatteryLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BatteryLifetime(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitionCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := TransitionCost(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SchedulerOverhead(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeadlineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DeadlineComparison(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMartinOptimum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MartinOptimum(2.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeringTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PeringTradeoff(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaybackLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PlaybackLifetime(DefaultEnv(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThresholdSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ThresholdSensitivity(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeiserOnWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := WeiserOnWorkloads(DefaultEnv(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIdealDVSComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := IdealDVSComparison(1); err != nil {
			b.Fatal(err)
		}
	}
}
