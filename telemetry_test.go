package clocksched

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"clocksched/internal/telemetry"
)

// A run with no telemetry attached must still publish the deterministic
// per-run summary on the Result.
func TestRunTelemetrySummary(t *testing.T) {
	res, err := Run(Config{
		Workload: MPEG,
		Policy:   Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98},
		Seed:     1,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Telemetry
	if rt.EventsFired == 0 {
		t.Error("EventsFired = 0, want > 0")
	}
	// 2 s of 10 ms quanta.
	if rt.Quanta != 200 {
		t.Errorf("Quanta = %d, want 200", rt.Quanta)
	}
	// The default DAQ samples at 5 kHz.
	if rt.DAQSamples != 10000 {
		t.Errorf("DAQSamples = %d, want 10000", rt.DAQSamples)
	}
	if rt.ScaleUps+rt.ScaleDowns == 0 {
		t.Error("PAST on MPEG never scaled; want some speed decisions")
	}
	if got := rt.ScaleUps + rt.ScaleDowns; got < res.ClockChanges {
		t.Errorf("scale decisions %d < applied clock changes %d", got, res.ClockChanges)
	}

	// Constant policies make no scale decisions.
	res2, err := Run(Config{Workload: MPEG, Seed: 1, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Telemetry.ScaleUps != 0 || res2.Telemetry.ScaleDowns != 0 {
		t.Errorf("constant policy ScaleUps/Downs = %d/%d, want 0/0",
			res2.Telemetry.ScaleUps, res2.Telemetry.ScaleDowns)
	}
}

// Attaching a live registry must not perturb the measurement: the Result,
// including its canonical encoding, is byte-identical with and without.
func TestTelemetryIsObservational(t *testing.T) {
	cfg := Config{
		Workload: MPEG,
		Policy:   Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98},
		Seed:     7,
		Duration: 2 * time.Second,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	cfg.Telemetry = tel
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := encodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := encodeResult(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, ib) {
		t.Error("instrumented run's Result differs from the plain run's")
	}

	// And the registry actually saw the run.
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kernel_quanta_total 200") {
		t.Errorf("registry missed the run; /metrics:\n%s", buf.String())
	}
}

// The Telemetry field must not split the sweep cache: equal cells hash
// equal whether or not a registry is attached.
func TestTelemetryExcludedFromCacheKey(t *testing.T) {
	base := Config{Workload: MPEG, Policy: Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}, Seed: 1, Duration: time.Second}
	withTel := base
	withTel.Telemetry = NewTelemetry()
	if cacheKey(base) != cacheKey(withTel) {
		t.Error("attaching Telemetry changed the cache key")
	}
}

// Nil receivers are inert across the public wrapper.
func TestNilTelemetryWrapper(t *testing.T) {
	var tel *Telemetry
	if tel.Addr() != "" {
		t.Error("nil Telemetry has an address")
	}
	if err := tel.Close(); err != nil {
		t.Error("nil Close errored:", err)
	}
	if err := tel.WritePrometheus(io.Discard); err != nil {
		t.Error("nil WritePrometheus errored:", err)
	}
	if err := tel.WriteJSON(io.Discard); err != nil {
		t.Error("nil WriteJSON errored:", err)
	}
	if tel.registry() != nil {
		t.Error("nil Telemetry unwraps to a live registry")
	}
}

// End-to-end: a parallel sweep under a served registry exposes pool
// occupancy, cache traffic, policy decisions, and utilization histograms
// over HTTP, and the SweepResult carries the pool summary.
func TestSweepTelemetryServed(t *testing.T) {
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if tel.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", tel.Addr(), addr)
	}
	if _, err := tel.Serve("127.0.0.1:0"); err == nil {
		t.Error("second Serve did not error")
	}

	cache, err := NewSweepCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() *SweepResult {
		res, err := Sweep(context.Background(), SweepConfig{
			Workloads: []Workload{MPEG},
			Policies:  []Policy{Policy{Up: Peg, Down: Peg, LoPercent: 93, HiPercent: 98}},
			Seeds:     []uint64{1, 2, 3},
			Duration:  time.Second,
			Workers:   2,
			Cache:     cache,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := sweep()
	if st := first.Telemetry; st.Workers != 2 || st.Ran != 3 || st.Cached != 0 ||
		st.Failed != 0 || st.PeakBusy < 1 || st.PeakBusy > 2 {
		t.Errorf("first sweep pool telemetry = %+v", st)
	}
	second := sweep()
	if st := second.Telemetry; st.Ran != 0 || st.Cached != 3 {
		t.Errorf("second sweep pool telemetry = %+v (want all cached)", st)
	}
	// Cached replays return the same results.
	for i := range first.Cells {
		if !reflect.DeepEqual(first.Cells[i].Result, second.Cells[i].Result) {
			t.Errorf("cell %d: cached result differs from simulated", i)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`sweep_cells_total{result="run"} 3`,
		`sweep_cells_total{result="cached"} 3`,
		"sweep_cache_hits_total 3",
		"sweep_cache_misses_total 3",
		"sweep_workers_busy_peak",
		`policy_decisions_total{decision=`,
		"kernel_quantum_util_bucket",
		"kernel_quanta_total 300",
		"daq_captures_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics.json", addr))
	if err != nil {
		t.Fatal(err)
	}
	jbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jbody), `"run.done"`) {
		t.Error("/metrics.json missing run.done events")
	}
}

// NewTelemetry pre-registers the stable series, so a scrape taken before
// any run still exposes the dashboard's metric names.
func TestTelemetryPreRegistered(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTelemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"sweep_workers_busy 0",
		`sweep_cells_total{result="run"} 0`,
		"sweep_cache_hits_total 0",
		`policy_decisions_total{decision="up"} 0`,
		"kernel_quantum_util_count 0",
		"sweep_cell_seconds_count 0",
		"daq_samples_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pre-registered /metrics missing %q; got:\n%s", want, text)
		}
	}
}

// TestTelemetrySpillEvents covers the public spill-to-disk event log: attach,
// run, shutdown, read back.
func TestTelemetrySpillEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	tel := NewTelemetry()
	if err := tel.SpillEvents(path); err != nil {
		t.Fatal(err)
	}
	if err := tel.SpillEvents(path); err == nil {
		t.Error("double SpillEvents accepted")
	}
	if _, err := Run(Config{Workload: RectWave, Duration: time.Second, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	// Shutdown (nothing serving) syncs and closes the spill.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadSpilledEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range evs {
		names = append(names, e.Name)
	}
	if len(evs) < 2 || names[0] != "run.start" || names[len(names)-1] != "run.done" {
		t.Fatalf("spilled events %v, want run.start .. run.done", names)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Wall.IsZero() {
			t.Errorf("event %d = %+v", i, e)
		}
	}
	if evs[0].Fields[0].Key != "workload" || evs[0].Fields[0].Value != string(RectWave) {
		t.Errorf("run.start fields %+v", evs[0].Fields)
	}
	// Nil receiver stays a no-op.
	var nilTel *Telemetry
	if err := nilTel.SpillEvents(path); err == nil {
		t.Error("nil Telemetry accepted a spill")
	}
	if err := nilTel.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
}

// TestTelemetryServeShutdown drains the public HTTP listener gracefully.
func TestTelemetryServeShutdown(t *testing.T) {
	tel := NewTelemetry()
	addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("listener alive after Shutdown")
	}
	// Serve again after shutdown: the Telemetry is reusable.
	addr2, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if addr2 == "" {
		t.Error("re-serve returned empty address")
	}
}

// TestTelemetryFoldParallel pins the cell-local instruments: every cell
// writes a private child registry and folds it into the shared one when it
// ends, so a 2-worker Table 2 sweep must leave exactly the counters and
// histogram buckets of the same sweep on one worker (histogram sums to
// within rounding, since they add in a different order). The adaptive rows
// run under a watchdog, and its trips and the run events must still reach
// the shared ring as they happen, in per-cell order.
func TestTelemetryFoldParallel(t *testing.T) {
	sweep := func(workers int) *Telemetry {
		grid := table2Sweep(workers)
		var cells []Config
		for _, p := range grid.Policies {
			for _, seed := range grid.Seeds {
				c := Config{Workload: MPEG, Policy: p, Seed: seed}
				if !p.Constant {
					c.Watchdog = &WatchdogConfig{Window: 32, MaxReversals: 4}
				}
				cells = append(cells, c)
			}
		}
		tel := NewTelemetry()
		if _, err := Sweep(context.Background(), SweepConfig{Cells: cells, Workers: workers, FailFast: true, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		return tel
	}
	serial, parallel := sweep(1), sweep(2)
	want, got := serial.Registry().Snapshot(), parallel.Registry().Snapshot()

	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters differ:\n 1 worker:  %v\n 2 workers: %v", want.Counters, got.Counters)
	}
	// 50 cells of 60 s at 100 quanta a second.
	const quanta = 50 * 6000
	if n := want.Counters[telemetry.MKernelQuanta]; n != quanta {
		t.Errorf("kernel_quanta_total = %d, want %d", n, quanta)
	}
	if n := want.Histograms[telemetry.MKernelQuantumUtil].Count; n != quanta {
		t.Errorf("kernel_quantum_util count = %d, want %d", n, quanta)
	}
	for name, w := range want.Histograms {
		if strings.HasPrefix(name, "sweep_") {
			continue // wall-clock latencies of the pool, not of the cells
		}
		g := got.Histograms[name]
		if !reflect.DeepEqual(g.Counts, w.Counts) || g.Count != w.Count {
			t.Errorf("%s buckets: 1 worker %v, 2 workers %v", name, w.Counts, g.Counts)
		}
		if d := math.Abs(g.Sum - w.Sum); d > 1e-9*math.Abs(w.Sum) {
			t.Errorf("%s sum: 1 worker %v, 2 workers %v", name, w.Sum, g.Sum)
		}
	}

	// Walk the shared ring: every run.done closes a cell its run.start
	// opened, every watchdog event lands while a cell is open, no more cells
	// are open at once than there are workers, and wall-clock stamps never
	// go backwards, because Emit forwards as the cell runs.
	trips := func(s telemetry.Snapshot) int64 {
		return s.Counters[telemetry.MWatchdogOscillation] + s.Counters[telemetry.MWatchdogPegging] + s.Counters[telemetry.MWatchdogMissStreak]
	}
	if trips(want) == 0 {
		t.Fatal("no watchdog trips in the sweep; the ordering check below would be vacuous")
	}
	t.Logf("%d watchdog trips", trips(want))
	for workers, tel := range map[int]*Telemetry{1: serial, 2: parallel} {
		events := tel.Registry().Events()
		open := map[string]int{}
		nOpen, starts, dones, tripEvents := 0, 0, 0, 0
		for i, e := range events {
			if i > 0 && e.Wall.Before(events[i-1].Wall) {
				t.Errorf("%d workers: event %d (%s) stamped before its predecessor", workers, i, e.Name)
			}
			key := fmt.Sprint(e.Fields[:min(len(e.Fields), 2)])
			switch {
			case e.Name == "run.start":
				starts++
				open[key]++
				nOpen++
			case e.Name == "run.done":
				dones++
				if open[key] == 0 {
					t.Errorf("%d workers: run.done %v without an open run.start", workers, e.Fields)
				}
				open[key]--
				nOpen--
			case strings.HasPrefix(e.Name, "watchdog."):
				if e.Name == "watchdog.trip" {
					tripEvents++
				}
				if nOpen == 0 {
					t.Errorf("%d workers: %s outside any cell", workers, e.Name)
				}
			}
			if nOpen > workers {
				t.Errorf("%d workers: %d cells open at event %d", workers, nOpen, i)
			}
		}
		if starts != 50 || dones != 50 || nOpen != 0 {
			t.Errorf("%d workers: %d run.start, %d run.done, %d left open; want 50, 50, 0", workers, starts, dones, nOpen)
		}
		if int64(tripEvents) != trips(want) {
			t.Errorf("%d workers: %d watchdog.trip events, counters say %d", workers, tripEvents, trips(want))
		}
	}
}
