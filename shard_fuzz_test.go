package clocksched

import (
	"encoding/json"
	"testing"
)

// FuzzSweepSpecShard decodes arbitrary JSON as a SweepSpec and checks the
// shard arithmetic the fabric relies on, without running a simulation:
// NumCells agrees with the runnable config's grid, shards cut at any
// points concatenate back to the whole grid in order, merging synthetic
// per-shard results restores the grid's cell count and axis dimensions
// (so CellAt stays in bounds), and out-of-range cuts are errors.
func FuzzSweepSpecShard(f *testing.F) {
	f.Add([]byte(`{"sim_version":"`+SimVersion()+`","workloads":["mpeg","rect"],"seeds":[1,2,3],"duration":"1s"}`), 1, 4)
	f.Add([]byte(`{"sim_version":"`+SimVersion()+`","policies":[{"name":"oa"},{"name":"avr"}]}`), 0, 2)
	f.Add([]byte(`{"cells":[{"workload":"web","seed":4},{"seed":5}]}`), 1, 1)
	f.Add([]byte(`{}`), 0, 0)
	f.Add([]byte(`{"seeds":[1,2,3,4,5,6,7],"fail_fast":true,"retries":2}`), 3, 3)
	f.Fuzz(func(t *testing.T, data []byte, a, b int) {
		var spec SweepSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		// Sized from the axes before NumCells expands the grid, so a
		// short input cannot ask for millions of cells.
		nw, np, ns := max(1, len(spec.Workloads)), max(1, len(spec.Policies)), max(1, len(spec.Seeds))
		if len(spec.Cells) > 4096 || len(spec.Cells) == 0 && nw*np*ns > 4096 {
			t.Skip("grid too large for a smoke")
		}
		n := spec.NumCells()
		if cfg, err := spec.Config(); err == nil && cfg.GridSize() != n {
			t.Fatalf("NumCells %d, Config().GridSize() %d", n, cfg.GridSize())
		}
		whole, err := spec.Shard(0, n)
		if err != nil {
			t.Fatalf("whole-grid shard of %d cells: %v", n, err)
		}

		// Two cut points in [0, n] split the grid into up to three
		// non-empty shards.
		cuts := []int{0, n}
		if n > 0 {
			lo, hi := posMod(a, n+1), posMod(b, n+1)
			if lo > hi {
				lo, hi = hi, lo
			}
			cuts = []int{0, lo, hi, n}
		}
		var cells []CellSpec
		var results []*SweepResult
		for i := 1; i < len(cuts); i++ {
			if cuts[i-1] == cuts[i] {
				continue
			}
			sh, err := spec.Shard(cuts[i-1], cuts[i])
			if err != nil {
				t.Fatalf("shard [%d, %d) of %d: %v", cuts[i-1], cuts[i], n, err)
			}
			if sh.SimVersion != spec.SimVersion || sh.NumCells() != cuts[i]-cuts[i-1] {
				t.Fatalf("shard [%d, %d) = %d cells, version %q", cuts[i-1], cuts[i], sh.NumCells(), sh.SimVersion)
			}
			cells = append(cells, sh.Cells...)
			r := &SweepResult{Cells: make([]SweepCell, len(sh.Cells))}
			for k, cs := range sh.Cells {
				r.Cells[k].Config = cs.config()
			}
			results = append(results, r)
		}
		if len(cells) != len(whole.Cells) {
			t.Fatalf("shards hold %d cells, grid %d", len(cells), len(whole.Cells))
		}
		for i := range cells {
			if cells[i] != whole.Cells[i] {
				t.Fatalf("cell %d: shard %+v, whole grid %+v", i, cells[i], whole.Cells[i])
			}
		}

		merged, err := MergeShardResults(spec, results)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if len(merged.Cells) != n {
			t.Fatalf("merged %d cells, want %d", len(merged.Cells), n)
		}
		if len(spec.Cells) == 0 {
			for i := 0; i < n; i++ {
				wi, pi, si := i/(np*ns), i/ns%np, i%ns
				if c := merged.CellAt(wi, pi, si); c == nil || c.Config.Seed != merged.Cells[i].Config.Seed {
					t.Fatalf("CellAt(%d, %d, %d) of %d×%d×%d is not cell %d", wi, pi, si, nw, np, ns, i)
				}
			}
			if merged.CellAt(nw, 0, 0) != nil || merged.CellAt(0, np, 0) != nil || merged.CellAt(0, 0, ns) != nil {
				t.Fatalf("CellAt past a %d×%d×%d grid returned a cell", nw, np, ns)
			}
		} else if merged.CellAt(0, 0, 0) != nil {
			t.Fatal("CellAt answered on an explicit grid")
		}

		for _, cut := range [][2]int{{-1, n}, {0, n + 1}, {a, a}, {n, n + 1}} {
			if _, err := spec.Shard(cut[0], cut[1]); err == nil {
				t.Fatalf("shard [%d, %d) of %d cells accepted", cut[0], cut[1], n)
			}
		}
	})
}

// posMod maps any int into [0, m).
func posMod(x, m int) int {
	if x %= m; x < 0 {
		x += m
	}
	return x
}
