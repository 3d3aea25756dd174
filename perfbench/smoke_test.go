package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step. The program may run workloads the file
// does not list (see README.md on sweepd).
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmark(t)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if (metricDef{m.Name, m.Unit}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %v, program has %v", i, m, endToEnd[i])
		}
	}
	for i, m := range f.PerLayer {
		if (metricDef{m.Name, m.Unit}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %v, program has %v", i, m, perLayer[i])
		}
	}
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload once at its tiny size, untraced and
// traced, and checks that every metric is printed with its unit, that the
// gate passes, and that it trips on a corrupted result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := run(options{workload: name, seed: 3, seconds: time.Second, trace: trace, out: t.TempDir(), tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("trace=%v: gate failed:\n%s", trace, res.text)
				}
				var line resultLine
				if err := json.Unmarshal([]byte(res.json), &line); err != nil {
					t.Fatal(err)
				}
				if line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("trace=%v: attempted %d, failed %d", trace, line.Attempted, line.Failed)
				}
				defs, prefix := endToEnd, "e2e "
				if trace {
					defs, prefix = perLayer, "layer "
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics in the result, want %d", trace, len(line.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := line.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("trace=%v: metric %s missing or not in %s: %+v", trace, m.name, m.unit, got)
					}
					if !strings.Contains(res.text, prefix+m.name+" ") {
						t.Errorf("trace=%v: report has no %q line", trace, prefix+m.name)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.name, got.Value)
					}
				}
				if !strings.Contains(res.text, "sim_digest ") {
					t.Error("no sim_digest line")
				}
				if trace && name != "sweepd" && line.Metrics["cache.hit_ratio"].Value != 0 {
					t.Errorf("cache.hit_ratio = %v on %s, which never repeats a cell", line.Metrics["cache.hit_ratio"].Value, name)
				}
			}
			res, err := run(options{workload: name, seed: 3, seconds: time.Second, out: t.TempDir(), tiny: true, corrupt: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct {
				t.Errorf("gate passed a corrupted result:\n%s", res.text)
			}
		})
	}
}
