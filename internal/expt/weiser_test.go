package expt_test

import (
	"strings"
	"testing"

	"clocksched/internal/paper"
)

func TestWeiserOnWorkloads(t *testing.T) {
	rows, err := paper.WeiserOnWorkloads(paper.DefaultEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// OPT never exceeds FUTURE, and both are clairvoyant (≤ full
		// speed = 1.0).
		if r.OptEnergy > r.FutureEnergy+1e-9 {
			t.Errorf("%s: OPT %.3f above FUTURE %.3f", r.Workload, r.OptEnergy, r.FutureEnergy)
		}
		if r.FutureEnergy > 1+1e-9 {
			t.Errorf("%s: FUTURE energy %.3f above full speed", r.Workload, r.FutureEnergy)
		}
		if r.OptEnergy <= 0 {
			t.Errorf("%s: OPT energy %.3f non-positive", r.Workload, r.OptEnergy)
		}
		// PAST misses work on every real workload: the lag is universal.
		if r.PastMissed <= 0 {
			t.Errorf("%s: PAST missed no work; the one-interval lag must cost something", r.Workload)
		}
	}
	// The headroom claim: OPT saves drastically on the bursty interactive
	// workloads (web, chess) where idle time dominates.
	for _, r := range rows {
		if r.Workload == "web" || r.Workload == "chess" {
			if r.OptEnergy > 0.5 {
				t.Errorf("%s: OPT energy %.3f; bursty idle should allow large stretch savings",
					r.Workload, r.OptEnergy)
			}
		}
	}
	if !strings.Contains(paper.RenderWeiser(rows), "OPT") {
		t.Error("render missing header")
	}
	t.Logf("\n%s", paper.RenderWeiser(rows))
}
