package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/service"
)

// fabricPeers is nproc in-process sweep daemons of one worker each.
type fabricPeers struct {
	peers []*daemon
	urls  []string
	// index maps a peer's host:port to its position in peers.
	index map[string]int
	// lease records, while a tracer is installed, when each peer job
	// started and finished executing.
	lease atomic.Pointer[leaseLog]
}

// leaseLog is what the traced pass learns about peer jobs, keyed by
// "<peer index>/<job id>".
type leaseLog struct {
	mu                  sync.Mutex
	execStart, execDone map[string]time.Time
	dispatched          map[string]time.Time // when the coordinator's POST went out
	leaseMs, idleMs     []float64
	queueMs, execMs     []float64
	dispatches, polls   int
	committed, rejected int
	shards              [][]byte // result bodies fetched during the current Run
}

func newLeaseLog() *leaseLog {
	return &leaseLog{
		execStart: map[string]time.Time{}, execDone: map[string]time.Time{},
		dispatched: map[string]time.Time{},
	}
}

func (e *env) bootPeers(ctx context.Context) (*fabricPeers, error) {
	fp := &fabricPeers{index: map[string]int{}}
	for i := 0; i < e.nproc; i++ {
		d, err := e.bootDaemon(service.Config{
			Workers:       1,
			MaxActiveJobs: 1,
			// The executor is the daemon's own local sweep; it only
			// notes when each job ran, for the traced pass.
			Executor: func(ctx context.Context, job service.ExecJob) (*clocksched.SweepResult, error) {
				lg := fp.lease.Load()
				t0 := time.Now()
				res, err := clocksched.Sweep(ctx, job.Config)
				if lg != nil {
					key := fmt.Sprintf("%d/%s", i, job.ID)
					lg.mu.Lock()
					lg.execStart[key] = t0
					lg.execDone[key] = time.Now()
					lg.mu.Unlock()
				}
				return res, err
			},
		})
		if err != nil {
			fp.close()
			return nil, err
		}
		u, err := url.Parse(d.hs.URL)
		if err != nil {
			return nil, err
		}
		fp.index[u.Host] = i
		fp.peers = append(fp.peers, d)
		fp.urls = append(fp.urls, d.hs.URL)
	}
	return fp, nil
}

func (fp *fabricPeers) close() {
	for _, d := range fp.peers {
		d.close()
	}
}

func (fp *fabricPeers) handlers() []http.Handler {
	var out []http.Handler
	for _, d := range fp.peers {
		out = append(out, d.srv)
	}
	return out
}

// fabricProbeSeeds bounds the seeds of the grid fabric's cache and
// journal probes sweep: four passes over 20 long MPEG cells.
const fabricProbeSeeds = 4

// gridCells lists an axis grid's cells in grid order.
func gridCells(g clocksched.SweepConfig) []clocksched.Config {
	var out []clocksched.Config
	for _, w := range g.Workloads {
		for _, p := range g.Policies {
			for _, seed := range g.Seeds {
				out = append(out, clocksched.Config{Workload: w, Policy: p, Seed: seed})
			}
		}
	}
	return out
}

// fabricRun is one coordinator Run of the reference grid.
type fabricRun struct {
	spec  clocksched.SweepSpec
	cells int
	body  []byte
	dur   time.Duration
}

// runFabric runs the 50-cell reference grid through a fabric coordinator
// over nproc peers, one Run at a time. Each Run has fresh seeds, so the
// peers' caches never hit, and a fresh ledger directory, because the
// coordinator resumes a ledger it finds.
func runFabric(e *env) error {
	pols, err := buildPolicies(table2Refs)
	if err != nil {
		return err
	}
	ctx, cancel := e.ctx()
	defer cancel()
	nSeeds := table2Seeds
	if e.opt.tiny {
		nSeeds = 2
	}
	grid := func(r *rand.Rand, pols []clocksched.Policy, n int) clocksched.SweepSpec {
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = seedOf(r)
		}
		return clocksched.NewSweepSpec(clocksched.SweepConfig{
			Workloads: []clocksched.Workload{clocksched.MPEG},
			Policies:  pols,
			Seeds:     seeds,
		})
	}
	runOnce := func(fp *fabricPeers, spec clocksched.SweepSpec, tt *traceTransport) (fabricRun, *clocksched.SweepResult, error) {
		dir, err := e.freshDir("ledger-")
		if err != nil {
			return fabricRun{}, nil, err
		}
		defer os.RemoveAll(dir)
		cfg := fabric.Config{Peers: fp.urls, Dir: dir, LocalWorkers: 1, Seed: e.opt.seed}
		if tt != nil {
			cfg.Transport = tt
		}
		co, err := fabric.New(cfg)
		if err != nil {
			return fabricRun{}, nil, err
		}
		t0 := time.Now()
		res, err := co.Run(ctx, spec)
		r := fabricRun{spec: spec, cells: spec.NumCells(), dur: time.Since(t0)}
		if err != nil {
			return r, nil, err
		}
		r.body, err = clocksched.EncodeSweepResult(res)
		return r, res, err
	}

	warm := rand.New(rand.NewPCG(e.opt.seed, 0xfab))
	fp, err := timeSetup(e, func() (*fabricPeers, error) {
		fp, err := e.bootPeers(ctx)
		if err != nil {
			return nil, err
		}
		// A one-cell warm-up is one lease, so set-up waits out the same
		// number of status polls every time.
		if _, _, err := runOnce(fp, grid(warm, pols[:1], 1), nil); err != nil {
			fp.close()
			return nil, err
		}
		return fp, nil
	}, func(fp *fabricPeers) { fp.close() })
	if err != nil {
		return err
	}
	defer fp.close()

	var runs []fabricRun
	var jobMs []float64
	cells := 0
	var total time.Duration
	before := sampleRuntime()
	start := time.Now()
	for i := 0; e.more(start, i, 1); i++ {
		r, _, err := runOnce(fp, grid(e.rng, pols, nSeeds), nil)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		cells += r.cells
		total += r.dur
		jobMs = append(jobMs, ms(r.dur))
	}
	e.runtimeLayer(before, sampleRuntime(), cells)
	e.peakRSS()
	e.e2e["cells_per_s"] = float64(cells) / total.Seconds()
	e.e2e["job_ms_p50"] = median(jobMs)
	e.note("fabric runs=%d cells=%d peers=%d", len(runs), cells, len(fp.peers))

	all := runs
	if e.opt.trace {
		traced, err := e.traceFabric(ctx, fp, func(tt *traceTransport) (fabricRun, *clocksched.SweepResult, error) {
			return runOnce(fp, grid(e.rng, pols, nSeeds), tt)
		})
		if err != nil {
			return err
		}
		all = append(all, traced...)
	}

	// Correctness gate: every Run's merged result equals a local serial
	// sweep of the same spec, byte for byte.
	var refTime time.Duration
	refCells := 0
	for i, r := range all {
		e.attempted += r.cells
		want, dur, err := serialReference(ctx, r.spec)
		if err != nil {
			return err
		}
		refTime += dur
		refCells += r.cells
		got := r.body
		if i == 0 {
			got = e.maybeCorrupt(got)
			e.digest = sha256Hex(want)
		}
		e.checkf(bytes.Equal(got, want), "run %d: merged result differs from a local serial sweep", i)
	}
	e.e2e["serial_cells_per_s"] = float64(refCells) / refTime.Seconds()
	return nil
}

// traceFabric runs the traced pass: spans on the coordinator's requests,
// the peers' handlers, and the peers' job execution, from which the
// lease, poll and merge metrics come.
func (e *env) traceFabric(ctx context.Context, fp *fabricPeers, runOnce func(*traceTransport) (fabricRun, *clocksched.SweepResult, error)) ([]fabricRun, error) {
	tr := newTracer()
	lg := newLeaseLog()
	tt := newTraceTransport(tr)
	tt.onDone = func(r *http.Request, status int, body []byte, t0, t1 time.Time) {
		name, id := route(r.Method, r.URL.Path)
		peer := fp.index[r.URL.Host]
		lg.mu.Lock()
		defer lg.mu.Unlock()
		if status == http.StatusTooManyRequests {
			lg.rejected++
		}
		switch name {
		case "POST /v1/jobs":
			var st service.JobStatus
			if status/100 == 2 && json.Unmarshal(body, &st) == nil {
				key := fmt.Sprintf("%d/%s", peer, st.ID)
				lg.dispatches++
				lg.dispatched[key] = t0
			}
		case "GET /v1/jobs/{id}":
			lg.polls++
		case "GET /v1/jobs/{id}/result":
			key := fmt.Sprintf("%d/%s", peer, id)
			if status/100 != 2 {
				return
			}
			lg.committed++
			lg.shards = append(lg.shards, body)
			if d, ok := lg.dispatched[key]; ok {
				lg.leaseMs = append(lg.leaseMs, ms(t1.Sub(d)))
			}
			if done, ok := lg.execDone[key]; ok {
				lg.idleMs = append(lg.idleMs, ms(t0.Sub(done)))
				lg.execMs = append(lg.execMs, ms(done.Sub(lg.execStart[key])))
				if d, ok := lg.dispatched[key]; ok {
					lg.queueMs = append(lg.queueMs, ms(lg.execStart[key].Sub(d)))
				}
			}
		}
	}
	fp.lease.Store(lg)
	for _, d := range fp.peers {
		d.h.tr.Store(tr)
	}
	m0 := scrapeAll(fp.handlers())
	var runs []fabricRun
	var mergeMs []float64
	var decode, encode time.Duration
	cells, shardBytes := 0, 0
	var total time.Duration
	start := time.Now()
	for i := 0; e.more(start, i, 1); i++ {
		lg.mu.Lock()
		lg.shards = nil
		lg.mu.Unlock()
		id := tr.start("fabric.run", fmt.Sprintf("run-%d", i), 0)
		tt.parent.Store(int64(id))
		r, res, err := runOnce(tt)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		cells += r.cells
		total += r.dur
		lg.mu.Lock()
		bodies := lg.shards
		lg.mu.Unlock()
		m, dec, err := timeMerge(r.spec, res, bodies)
		if err != nil {
			e.check(fmt.Errorf("run %d: %w", i, err))
		}
		mergeMs = append(mergeMs, m)
		decode += dec
		for _, b := range bodies {
			shardBytes += len(b)
		}
		t0 := time.Now()
		if _, err := clocksched.EncodeSweepResult(res); err != nil {
			return nil, err
		}
		encode += time.Since(t0)
	}
	m1 := scrapeAll(fp.handlers())
	fp.lease.Store(nil)
	for _, d := range fp.peers {
		d.h.tr.Store(nil)
	}

	e.overhead(e.e2e["cells_per_s"], float64(cells)/total.Seconds())
	lg.mu.Lock()
	defer lg.mu.Unlock()
	e.layer["fabric.lease_ms"] = median(lg.leaseMs)
	e.layer["fabric.lease_idle_ms"] = median(lg.idleMs)
	e.layer["fabric.merge_ms"] = median(mergeMs)
	if lg.committed > 0 {
		e.layer["fabric.polls_per_shard"] = float64(lg.polls) / float64(lg.committed)
		e.layer["fabric.shards"] = float64(lg.committed) / float64(len(runs))
		e.layer["codec.decode_us_per_cell"] = float64(decode) / float64(time.Microsecond) / float64(cells)
		e.layer["codec.bytes_per_cell"] = float64(shardBytes) / float64(cells)
	}
	if lg.dispatches > 0 {
		e.layer["fabric.useful_frac"] = float64(lg.committed) / float64(lg.dispatches)
		e.layer["service.http_reqs_per_job"] = float64(tt.reqs.Load()) / float64(lg.dispatches)
	}
	e.layer["codec.encode_us_per_cell"] = float64(encode) / float64(time.Microsecond) / float64(cells)
	e.layer["service.submit_ms"] = median(tr.durations("http POST /v1/jobs"))
	e.layer["service.result_ms"] = median(tr.durations("http GET /v1/jobs/{id}/result"))
	e.layer["service.queue_ms"] = median(lg.queueMs)
	e.layer["service.exec_ms"] = median(lg.execMs)
	e.layer["service.rejected"] = float64(lg.rejected)
	e.layer["cache.hit_ratio"] = cacheHitRatio(m1, m0)
	serverPool(e, m1, m0, len(fp.peers), time.Since(start))
	// The peers cache and journal every cell; price both on the cells of
	// the last Run.
	cfg, err := runs[len(runs)-1].spec.Config()
	if err != nil {
		return nil, err
	}
	grid := clocksched.SweepConfig{Workloads: cfg.Workloads, Policies: cfg.Policies, Seeds: cfg.Seeds[:min(len(cfg.Seeds), fabricProbeSeeds)]}
	if err := e.cacheProbe(ctx, tr, gridCells(grid)); err != nil {
		return nil, err
	}
	return runs, tr.report(e)
}

// timeMerge rebuilds a Run's merge from the shard results the peers
// served: it decodes each body, orders the shards by where their first
// cell sits in the merged grid, and times clocksched.MergeShardResults on
// them. The rebuilt merge must encode to the Run's own result. It returns
// the merge time in milliseconds and the total decode time.
func timeMerge(spec clocksched.SweepSpec, res *clocksched.SweepResult, bodies [][]byte) (float64, time.Duration, error) {
	pos := map[string]int{}
	for i, c := range res.Cells {
		pos[cellKey(c.Config)] = i
	}
	type shard struct {
		at  int
		res *clocksched.SweepResult
	}
	var shards []shard
	seen := map[int]bool{}
	var decode time.Duration
	for _, b := range bodies {
		t0 := time.Now()
		r, err := clocksched.DecodeSweepResult(b)
		decode += time.Since(t0)
		if err != nil {
			return 0, decode, err
		}
		if len(r.Cells) == 0 {
			continue
		}
		at, ok := pos[cellKey(r.Cells[0].Config)]
		if !ok || seen[at] {
			continue // a stolen shard's duplicate
		}
		seen[at] = true
		shards = append(shards, shard{at, r})
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].at < shards[j].at })
	parts := make([]*clocksched.SweepResult, len(shards))
	for i, s := range shards {
		parts[i] = s.res
	}
	t0 := time.Now()
	merged, err := clocksched.MergeShardResults(spec, parts)
	m := ms(time.Since(t0))
	if err != nil {
		return m, decode, fmt.Errorf("rebuilding the merge: %w", err)
	}
	a, err := clocksched.EncodeSweepResult(merged)
	if err != nil {
		return m, decode, err
	}
	b, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		return m, decode, err
	}
	if !bytes.Equal(a, b) {
		return m, decode, fmt.Errorf("merge rebuilt from the served shards differs from the Run's result")
	}
	return m, decode, nil
}

// cellKey identifies a cell of one grid.
func cellKey(c clocksched.Config) string {
	return strings.Join([]string{string(c.Workload), c.Policy.Name(), fmt.Sprint(c.Seed, c.Duration)}, "|")
}
