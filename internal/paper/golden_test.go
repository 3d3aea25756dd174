package paper

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clocksched"
)

// TestResultsGolden regenerates every experiment except the fleet (whose
// 10k-device artifact is not committed) and byte-compares each artifact
// against the committed copy under results/. The grids share one cache,
// exactly as a cmd/experiments run does.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full reproduction")
	}
	cache, err := clocksched.NewSweepCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	env := DefaultEnv(1)
	env.Exec = Local(clocksched.SweepConfig{Workers: runtime.GOMAXPROCS(0), Cache: cache})
	for _, e := range Registry() {
		if e.Name == "fleet" {
			continue
		}
		_, arts, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, a := range arts {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", a.Name))
			if err != nil {
				t.Errorf("%s: %v", e.Name, err)
				continue
			}
			if a.Content != string(want) {
				t.Errorf("%s: %s differs from the committed results/%s", e.Name, a.Name, a.Name)
			}
		}
	}
}
