package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"clocksched"
	"clocksched/internal/service"
)

// daemon is one in-process sweep daemon on a loopback listener.
type daemon struct {
	srv *service.Server
	h   *traceHandler
	hs  *httptest.Server
	dir string
}

func (e *env) bootDaemon(cfg service.Config) (*daemon, error) {
	dir, err := e.freshDir("sweepd-")
	if err != nil {
		return nil, err
	}
	cfg.DataDir = dir
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &traceHandler{next: srv}
	return &daemon{srv: srv, h: h, hs: httptest.NewServer(h), dir: dir}, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.hs.Close()
	os.RemoveAll(d.dir)
}

// jobClasses weights the workload classes of generated jobs like the
// fleet's default mix.
var jobClasses = []struct {
	w      clocksched.Workload
	weight float64
}{
	{clocksched.MPEG, 0.25},
	{clocksched.Web, 0.30},
	{clocksched.Chess, 0.15},
	{clocksched.TalkingEditor, 0.15},
	{clocksched.Feedback, 0.15},
}

var jobRefs = []policyRef{
	{"past-peg-peg", nil},
	{"deadline", nil},
	{"constant", map[string]float64{"mhz": 206.4}},
}

// rssAtJobs is the job count at which sweepd reads peak_rss_mb. The
// daemon keeps every job's state and telemetry for its lifetime, so its
// memory grows with the jobs it has served; reading the high-water mark at
// a fixed job count keeps a throughput gain from reading as a memory
// regression. Each pass runs at least this many jobs.
const rssAtJobs = 600

// repeatShare is the generator's chance that a cell repeats a cell of an
// earlier job, so the daemon's cache is read beside being written.
const repeatShare = 0.5

// jobGen hands out a deterministic stream of small mixed-class jobs: job
// n is the same for a given seed whichever client takes it.
type jobGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	pols  []clocksched.Policy
	fresh []clocksched.Config // every first-seen cell, for repeats
	n     int
}

func (g *jobGen) cell() clocksched.Config {
	if len(g.fresh) > 0 && g.rng.Float64() < repeatShare {
		return g.fresh[g.rng.IntN(len(g.fresh))]
	}
	x := g.rng.Float64()
	w := jobClasses[len(jobClasses)-1].w
	for _, c := range jobClasses {
		if x < c.weight {
			w = c.w
			break
		}
		x -= c.weight
	}
	c := clocksched.Config{
		Workload: w,
		Policy:   g.pols[g.rng.IntN(len(g.pols))],
		Seed:     seedOf(g.rng),
		Duration: time.Duration(1+g.rng.IntN(2)) * time.Second,
	}
	g.fresh = append(g.fresh, c)
	return c
}

// next returns job n's index and spec: eight to sixteen cells. Per-job
// costs (admission, HTTP, the event stream) are then shared by enough
// per-cell work (journal commit, cache, codec) that the loop is not
// dominated by goroutine hand-offs, whose latency swings most with the
// host's load.
func (g *jobGen) next() (int, clocksched.SweepSpec, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cells := make([]clocksched.Config, 8+g.rng.IntN(9))
	for i := range cells {
		cells[i] = g.cell()
	}
	g.n++
	return g.n - 1, clocksched.NewSweepSpec(clocksched.SweepConfig{Cells: cells}), len(cells)
}

// sweepdJob is one closed-loop job: Submit, Wait, ResultBytes, decode.
type sweepdJob struct {
	n        int
	spec     clocksched.SweepSpec
	cells    int
	sum      string // sha256 of the served result
	body     []byte // the served result, kept in the traced pass only
	dur      time.Duration
	err      error
	rejected bool
	// Traced pass only: when Submit returned, and when the job's event
	// stream reported it running and terminal.
	submitted, running, done time.Time
}

// runSweepd drives one in-process sweep daemon with a closed loop of
// nproc clients. Every result is checked against a local serial Sweep of
// the same spec afterwards; that reference pass is the workload's
// serial_cells_per_s.
func runSweepd(e *env) error {
	pols, err := buildPolicies(jobRefs)
	if err != nil {
		return err
	}
	ctx, cancel := e.ctx()
	defer cancel()
	cfg := service.Config{Workers: e.nproc, MaxActiveJobs: e.nproc}

	warm := &jobGen{rng: rand.New(rand.NewPCG(e.opt.seed, 0x5eedd)), pols: pols}
	d, err := timeSetup(e, func() (*daemon, error) {
		d, err := e.bootDaemon(cfg)
		if err != nil {
			return nil, err
		}
		cl := &service.Client{Base: d.hs.URL}
		_, spec, _ := warm.next()
		if j := sweepdRoundTrip(ctx, cl, nil, spec, "warm"); j.err != nil {
			d.close()
			return nil, j.err
		}
		return d, nil
	}, func(d *daemon) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()

	gen := &jobGen{rng: e.rng, pols: pols}
	minJobs := rssAtJobs / e.nproc
	if e.opt.tiny {
		minJobs = 1
	}
	pass := func(tr *tracer, atJobs func(int)) ([]sweepdJob, time.Duration, *traceTransport) {
		var tt *traceTransport
		if tr != nil {
			tt = newTraceTransport(tr)
		}
		var mu sync.Mutex
		var jobs []sweepdJob
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < e.nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := &service.Client{Base: d.hs.URL}
				if tt != nil {
					cl.Transport = tt
				}
				for n := 0; e.more(start, n, minJobs); n++ {
					i, spec, cells := gen.next()
					j := sweepdRoundTrip(ctx, cl, tr, spec, fmt.Sprintf("job-%d", i))
					j.n, j.cells = i, cells
					mu.Lock()
					jobs = append(jobs, j)
					if atJobs != nil {
						atJobs(len(jobs))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return jobs, time.Since(start), tt
	}

	before := sampleRuntime()
	jobs, wall, _ := pass(nil, func(n int) {
		if n == rssAtJobs {
			e.peakRSS()
		}
	})
	if len(jobs) < rssAtJobs {
		e.peakRSS()
	}
	cells, jobMs := 0, []float64(nil)
	for _, j := range jobs {
		if j.err == nil {
			cells += j.cells
			jobMs = append(jobMs, ms(j.dur))
		}
	}
	e.runtimeLayer(before, sampleRuntime(), cells)
	e.e2e["cells_per_s"] = float64(cells) / wall.Seconds()
	e.e2e["job_ms_p50"] = median(jobMs)
	e.e2e["job_ms_p99"] = quantile(jobMs, 0.99)
	e.note("sweepd jobs=%d cells=%d clients=%d wall=%.3fs; job_ms_p99 over %d samples (%d beyond it)",
		len(jobs), cells, e.nproc, wall.Seconds(), len(jobMs), len(jobMs)/100)

	all := jobs
	if e.opt.trace {
		tr := newTracer()
		d.h.tr.Store(tr)
		m0 := scrape(d.srv)
		traced, twall, tt := pass(tr, nil)
		m1 := scrape(d.srv)
		d.h.tr.Store(nil)
		all = append(all, traced...)
		tc := 0
		var queue, exec []float64
		for _, j := range traced {
			if j.err == nil {
				tc += j.cells
				queue = append(queue, ms(j.running.Sub(j.submitted)))
				exec = append(exec, ms(j.done.Sub(j.running)))
			}
			if j.rejected {
				e.layer["service.rejected"]++
			}
		}
		e.overhead(e.e2e["cells_per_s"], float64(tc)/twall.Seconds())
		e.layer["service.submit_ms"] = median(tr.durations("service.submit"))
		e.layer["service.queue_ms"] = median(queue)
		e.layer["service.exec_ms"] = median(exec)
		e.layer["service.result_ms"] = median(tr.durations("service.result"))
		e.layer["service.http_reqs_per_job"] = float64(tt.reqs.Load()) / float64(max(len(traced), 1))
		e.layer["cache.hit_ratio"] = cacheHitRatio(m1, m0)
		serverPool(e, m1, m0, e.nproc, twall)
		if err := codecLayer(e, tr, traced); err != nil {
			return err
		}
		if err := e.cacheProbe(ctx, tr, gen.fresh[:min(len(gen.fresh), cacheProbeCells)]); err != nil {
			return err
		}
		if err := tr.report(e); err != nil {
			return err
		}
	}

	// Correctness gate: every job's result equals a local serial Sweep of
	// its spec, byte for byte. Jobs are checked in generator order, so the
	// digest folds the same jobs in the same order on every run.
	sort.Slice(all, func(a, b int) bool { return all[a].n < all[b].n })
	var refTime time.Duration
	refCells := 0
	for i, j := range all {
		e.attempted += j.cells
		if j.err != nil {
			e.failed += j.cells
			e.check(fmt.Errorf("job %d: %w", j.n, j.err))
			continue
		}
		want, dur, err := serialReference(ctx, j.spec)
		if err != nil {
			return err
		}
		refTime += dur
		refCells += j.cells
		got := j.sum
		if i == 0 {
			got = string(e.maybeCorrupt([]byte(got)))
		}
		e.checkf(got == sha256Hex(want), "job %d: result differs from a local serial sweep of its spec", j.n)
		if j.n < 8 {
			e.digest = sha256Hex([]byte(e.digest), want)
		}
	}
	e.e2e["serial_cells_per_s"] = float64(refCells) / refTime.Seconds()
	return nil
}

// sweepdRoundTrip runs one job through the daemon's HTTP API. A traced
// round trip watches the job's event stream itself, which is what Wait
// does, so it can stamp when the job started running and finished.
func sweepdRoundTrip(ctx context.Context, cl *service.Client, tr *tracer, spec clocksched.SweepSpec, req string) sweepdJob {
	j := sweepdJob{spec: spec}
	root := tr.start("sweepd.job", req, 0)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.start("service.submit", req, root)
	st, err := cl.Submit(withReq(ctx, req, id), spec)
	tr.end(id)
	if err != nil {
		var apiErr *service.APIError
		j.rejected = errors.As(err, &apiErr) && apiErr.Status == 429
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	j.submitted = time.Now()
	if tr == nil {
		st, err = cl.Wait(ctx, st.ID, nil)
	} else {
		id = tr.start("service.wait", req, root)
		rctx := withReq(ctx, req, id)
		_ = cl.Events(rctx, st.ID, func(ev service.Event) error {
			if ev.State == service.StateRunning && j.running.IsZero() {
				j.running = time.Now()
			}
			if ev.Type == "state" && ev.State == service.StateDone {
				j.done = time.Now()
			}
			return nil
		})
		// Wait confirms the terminal state with a status probe after the
		// stream ends; so does the traced form.
		st, err = cl.Status(rctx, st.ID)
		if err == nil && st.State != service.StateDone && st.State != service.StateFailed && st.State != service.StateCancelled {
			st, err = cl.Wait(rctx, st.ID, nil)
		}
		tr.end(id)
		if j.running.IsZero() || j.done.IsZero() {
			// The stream missed a transition (the job ran before the
			// subscription); count the whole wait as execution.
			j.running, j.done = j.submitted, time.Now()
		}
	}
	if err != nil {
		j.err = fmt.Errorf("wait: %w", err)
		return j
	}
	if st.State != service.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return j
	}
	id = tr.start("service.result", req, root)
	body, err := cl.ResultBytes(withReq(ctx, req, id), st.ID)
	tr.end(id)
	if err != nil {
		j.err = fmt.Errorf("result: %w", err)
		return j
	}
	id = tr.start("codec.decode", req, root)
	_, err = clocksched.DecodeSweepResult(body)
	tr.end(id)
	if err != nil {
		j.err = err
		return j
	}
	j.dur = time.Since(t0)
	j.sum = sha256Hex(body)
	if tr != nil {
		j.body = body
	}
	return j
}

// serialReference runs spec locally on one worker with no cache and
// returns its encoded result and how long the sweep took.
func serialReference(ctx context.Context, spec clocksched.SweepSpec) ([]byte, time.Duration, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, 0, err
	}
	cfg.Workers = 1
	t0 := time.Now()
	res, err := clocksched.Sweep(ctx, cfg)
	dur := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("reference sweep: %w", err)
	}
	b, err := clocksched.EncodeSweepResult(res)
	return b, dur, err
}

// codecLayer times the result codec on the pass's results: the decode
// spans the round trips recorded, and a re-encode of each decoded result,
// which must reproduce the served bytes.
func codecLayer(e *env, tr *tracer, jobs []sweepdJob) error {
	cells, size := 0, 0
	var enc time.Duration
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		res, err := clocksched.DecodeSweepResult(j.body)
		if err != nil {
			return err
		}
		id := tr.start("codec.encode", "", 0)
		t0 := time.Now()
		b, err := clocksched.EncodeSweepResult(res)
		enc += time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		e.checkf(bytes.Equal(b, j.body), "job %d: re-encoding the decoded result changed its bytes", j.n)
		cells += j.cells
		size += len(j.body)
	}
	if cells == 0 {
		return nil
	}
	e.layer["codec.encode_us_per_cell"] = float64(enc) / float64(time.Microsecond) / float64(cells)
	e.layer["codec.decode_us_per_cell"] = sum(tr.durations("codec.decode")) * 1000 / float64(cells)
	e.layer["codec.bytes_per_cell"] = float64(size) / float64(cells)
	return nil
}

// cacheProbeCells bounds the short cells sweepd's cache and journal
// probes sweep.
const cacheProbeCells = 200

// cacheProbe prices the cache and the journal by timing the same public
// call with and without them engaged: a serial Sweep of distinct cells
// with no cache, with a cold cache (every cell a miss and a put), again
// over the now-warm cache (every cell a hit), and with a cold cache plus a
// journal (every cell also a fsynced commit). The cells must be distinct.
func (e *env) cacheProbe(ctx context.Context, tr *tracer, cells []clocksched.Config) error {
	if len(cells) == 0 {
		return nil
	}
	timed := func(name string, cache *clocksched.SweepCache, journal string) (time.Duration, error) {
		id := tr.start(name, "", 0)
		t0 := time.Now()
		_, err := clocksched.Sweep(ctx, clocksched.SweepConfig{Cells: cells, Workers: 1, Cache: cache, Journal: journal})
		dur := time.Since(t0)
		tr.end(id)
		return dur, err
	}
	newCache := func() (*clocksched.SweepCache, string, error) {
		dir, err := e.freshDir("cache-")
		if err != nil {
			return nil, "", err
		}
		c, err := clocksched.NewSweepCache(0, dir)
		return c, dir, err
	}
	bare, err := timed("probe.nocache", nil, "")
	if err != nil {
		return err
	}
	c, dir, err := newCache()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cold, err := timed("probe.cache_cold", c, "")
	if err != nil {
		return err
	}
	warm, err := timed("probe.cache_warm", c, "")
	if err != nil {
		return err
	}
	cj, jdir, err := newCache()
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	journaled, err := timed("probe.cache_journal", cj, jdir+"/sweep.wal")
	if err != nil {
		return err
	}
	n := float64(len(cells)) / 1e6 // per cell, in microseconds
	e.layer["cache.miss_put_us"] = (cold - bare).Seconds() / n
	e.layer["cache.hit_us"] = warm.Seconds() / n
	e.layer["journal.commit_us"] = (journaled - cold).Seconds() / n
	return nil
}

// serverPool records the sweep pool metrics of the daemons' jobs from
// their /metrics counters over one pass: busy fraction against
// workers × the pass's wall time, and the cell counts.
func serverPool(e *env, after, before map[string]float64, workers int, wall time.Duration) {
	busy := delta(after, before, "sweep_cell_seconds_sum")
	if wall > 0 {
		e.layer["sweep.busy_frac"] = busy / (float64(workers) * wall.Seconds())
	}
	e.layer["sweep.peak_busy"] = after["sweep_workers_busy_peak"]
	e.layer["sweep.ran"] = delta(after, before, `sweep_cells_total{result="run"}`)
	e.layer["sweep.cached"] = delta(after, before, `sweep_cells_total{result="cached"}`)
	e.layer["sweep.failed"] = delta(after, before, `sweep_cells_total{result="failed"}`)
	e.layer["sweep.retried"] = delta(after, before, "sweep_cell_retries_total")
}
