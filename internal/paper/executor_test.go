package paper

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/service"
)

func startPeer(t *testing.T) string {
	t.Helper()
	s, err := service.New(service.Config{DataDir: t.TempDir(), Workers: 2})
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

// TestTable2SeedAcrossExecutors pins the -seed contract: Table 2 at seed 3
// sweeps seeds 3..12 and renders the same table whether the grid runs
// locally, on one sweepd daemon (-remote), or across two fabric peers
// (-peers).
func TestTable2SeedAcrossExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 2 grid three times")
	}
	render := func(exec Executor) string {
		t.Helper()
		rows, err := Table2Env(Env{Ctx: context.Background(), Seed: 3, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable2(rows)
	}
	local := render(Local(clocksched.SweepConfig{Workers: 2}))
	seed1, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if local == RenderTable2(seed1) {
		t.Error("seed 3 rendered the seed-1 table: Env.Seed ignored")
	}

	remote := render(Remote(&service.Client{Base: startPeer(t)}, nil))
	if remote != local {
		t.Errorf("-remote table differs from local:\n--- local\n%s\n--- remote\n%s", local, remote)
	}
	peers := render(Fabric(fabric.Config{
		Peers: []string{startPeer(t), startPeer(t)},
		Dir:   t.TempDir(),
		Seed:  3,
	}))
	if peers != local {
		t.Errorf("-peers table differs from local:\n--- local\n%s\n--- peers\n%s", local, peers)
	}
}

// TestLocalJournalSpansGrids checks the Local executor's journal contract:
// the first grid truncates the journal, later grids append, so a resumed
// executor replays every grid an interrupted run committed.
func TestLocalJournalSpansGrids(t *testing.T) {
	dir := t.TempDir()
	cache, err := clocksched.NewSweepCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := func(seed uint64) clocksched.SweepConfig {
		return clocksched.SweepConfig{Workloads: []clocksched.Workload{clocksched.RectWave},
			Seeds: []uint64{seed}, Duration: 200 * time.Millisecond}
	}
	res := clocksched.SweepConfig{Workers: 1, Cache: cache, Journal: filepath.Join(dir, "sweep.wal")}
	exec := Local(res)
	for _, seed := range []uint64{1, 2} {
		if _, err := exec(context.Background(), grid(seed)); err != nil {
			t.Fatal(err)
		}
	}
	res.Resume = true
	resumed := Local(res)
	for _, seed := range []uint64{1, 2} {
		r, err := resumed(context.Background(), grid(seed))
		if err != nil {
			t.Fatal(err)
		}
		if r.Telemetry.Replayed != 1 {
			t.Errorf("seed %d: %d cell(s) replayed, want 1", seed, r.Telemetry.Replayed)
		}
	}
}
