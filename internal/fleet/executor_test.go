package fleet_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/fleet"
	"clocksched/internal/paper"
	"clocksched/internal/service"
)

func startPeer(t *testing.T, cfg service.Config) string {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// twoPeerFabric is the executor both byte-identity tests share: two
// in-process sweepd peers behind a fabric coordinator.
func twoPeerFabric(t *testing.T) paper.Executor {
	t.Helper()
	p1 := startPeer(t, service.Config{Workers: 2})
	p2 := startPeer(t, service.Config{Workers: 2})
	return paper.Fabric(fabric.Config{Peers: []string{p1, p2}, Dir: t.TempDir(), LocalWorkers: 2})
}

// runOn compiles spec and reduces its cells as swept by exec.
func runOn(t *testing.T, spec fleet.Spec, exec paper.Executor) *fleet.Population {
	t.Helper()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec(context.Background(), clocksched.SweepConfig{Cells: plan.Cells, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := fleet.Reduce(plan, res)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestFleetByteIdentity is the acceptance core: the same fixed-seed
// population reduces to a byte-identical summary whether the cells run
// serially, across four workers, or across two in-process sweepd peers.
func TestFleetByteIdentity(t *testing.T) {
	spec := fleet.FixedSpec(t)
	ref, err := fleet.Run(context.Background(), spec, fleet.RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	if !strings.Contains(want, "Fleet population: 18 devices") {
		t.Fatalf("unexpected summary:\n%s", want)
	}

	par := runOn(t, spec, paper.Local(clocksched.SweepConfig{Workers: 4}))
	if got := par.Render(); got != want {
		t.Errorf("4-worker summary differs from serial:\n--- serial\n%s\n--- parallel\n%s", want, got)
	}

	if testing.Short() {
		t.Skip("fabric leg")
	}
	fab := runOn(t, spec, twoPeerFabric(t))
	if got := fab.Render(); got != want {
		t.Errorf("2-peer summary differs from serial:\n--- serial\n%s\n--- fabric\n%s", want, got)
	}
}

// TestExperimentLocalVsPeers is the standing experiment's golden test:
// the fixed-seed population cmd/experiments sweeps with `-only fleet`
// must reduce to a byte-identical summary locally and through `-peers`
// (in-process fabric peers), including the zoo's infeasible pairings.
func TestExperimentLocalVsPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric test")
	}
	local, err := paper.FleetEnv(paper.Env{Seed: 1, Exec: paper.Local(clocksched.SweepConfig{Workers: 2})}, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Render()
	for _, header := range []string{
		"Fleet population: 40 devices, seed 1",
		"Infeasible pairings",
	} {
		if !strings.Contains(want, header) {
			t.Fatalf("summary missing %q:\n%s", header, want)
		}
	}
	peers, err := paper.FleetEnv(paper.Env{Seed: 1, Exec: twoPeerFabric(t)}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := peers.Render(); got != want {
		t.Errorf("-peers summary differs from local:\n--- local\n%s\n--- peers\n%s", want, got)
	}
}
