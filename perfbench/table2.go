package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"clocksched"
	"clocksched/internal/telemetry"
)

// table2Seeds is the seed count of one block: five policies by ten seeds
// is the 50-cell reference grid of Table 2.
const table2Seeds = 10

// policyRef names a policy in the registry's wire form.
type policyRef struct {
	name   string
	params map[string]float64
}

func buildPolicies(refs []policyRef) ([]clocksched.Policy, error) {
	var out []clocksched.Policy
	for _, r := range refs {
		p, err := clocksched.NewPolicy(r.name, r.params)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// table2Refs are the paper's Table 2 rows, in the order the shape check
// indexes them.
var table2Refs = []policyRef{
	{"constant", map[string]float64{"mhz": 206.4}},
	{"constant", map[string]float64{"mhz": 132.7}},
	{"constant", map[string]float64{"mhz": 132.7, "low_voltage": 1}},
	{"past-peg-peg", nil},
	{"past-peg-peg", map[string]float64{"voltage_scale": 1}},
}

// seedOf draws a workload seed.
func seedOf(r *rand.Rand) uint64 { return r.Uint64N(1_000_000_000) + 1 }

// table2Block is one grid's serial and parallel passes.
type table2Block struct {
	serialSum     string // sha256 of the serial pass's EncodeSweepResult
	identical     bool   // the two passes encode to the same bytes
	tSerial, tPar time.Duration
	cells, failed int
	energy        [][]float64 // [policy][seed]
	misses        int
}

// runTable2 times the Table 2 grid through clocksched.Sweep on one worker
// and on nproc workers, block by block. Each block is the 50-cell grid on
// fresh seeds; the two passes of a block alternate which goes first, so
// drift in the host's load reaches both alike.
func runTable2(e *env) error {
	pols, err := buildPolicies(table2Refs)
	if err != nil {
		return err
	}
	ctx, cancel := e.ctx()
	defer cancel()
	grid := func(seeds []uint64, workers int) clocksched.SweepConfig {
		return clocksched.SweepConfig{
			Workloads: []clocksched.Workload{clocksched.MPEG},
			Policies:  pols,
			Seeds:     seeds,
			Workers:   workers,
			FailFast:  true,
		}
	}
	nSeeds := table2Seeds
	if e.opt.tiny {
		nSeeds = 1
	}

	// Set-up is one warm-up sweep (one seed of every policy), on a seed
	// stream of its own so it leaves the measured inputs untouched.
	warm := rand.New(rand.NewPCG(e.opt.seed, 0x3a3a))
	if _, err := timeSetup(e, func() (struct{}, error) {
		_, err := clocksched.Sweep(ctx, grid([]uint64{seedOf(warm)}, e.nproc))
		return struct{}{}, err
	}, func(struct{}) {}); err != nil {
		return err
	}

	var pool poolStats
	pass := func(tr *tracer, probe *cellProbe) ([]table2Block, error) {
		var blocks []table2Block
		start := time.Now()
		for i := 0; e.more(start, i, 2); i++ {
			seeds := make([]uint64, nSeeds)
			for s := range seeds {
				seeds[s] = seedOf(e.rng)
			}
			req := fmt.Sprintf("block-%d", i)
			block := tr.start("table2.block", req, 0)
			var b table2Block
			var ser, par *clocksched.SweepResult
			for k := 0; k < 2; k++ {
				if (i+k)%2 == 0 {
					id := tr.start("sweep.serial", req, block)
					t0 := time.Now()
					ser, err = clocksched.Sweep(ctx, grid(seeds, 1))
					b.tSerial = time.Since(t0)
					tr.end(id)
				} else {
					cfg := grid(seeds, e.nproc)
					if tr != nil {
						cfg.Telemetry = clocksched.NewTelemetry()
					}
					id := tr.start("sweep.parallel", req, block)
					t0 := time.Now()
					par, err = clocksched.Sweep(ctx, cfg)
					b.tPar = time.Since(t0)
					tr.end(id)
					if tr != nil && par != nil {
						pool.add(cfg.Telemetry, par, b.tPar)
					}
				}
				if err != nil {
					return nil, err
				}
			}
			// Results are compared here and only their hash kept, so
			// memory does not grow with the blocks a run completes.
			serBytes, err := clocksched.EncodeSweepResult(ser)
			if err != nil {
				return nil, err
			}
			parBytes, err := clocksched.EncodeSweepResult(par)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				parBytes = e.maybeCorrupt(parBytes)
			}
			b.identical = bytes.Equal(serBytes, parBytes)
			b.serialSum = sha256Hex(serBytes)
			b.cells = len(par.Cells)
			b.energy = make([][]float64, len(pols))
			for pi := range pols {
				for si := range seeds {
					c := par.CellAt(0, pi, si)
					if c.Err != nil || c.Result == nil {
						b.failed++
						continue
					}
					b.energy[pi] = append(b.energy[pi], c.Result.EnergyJoules)
					b.misses += c.Result.Misses
				}
			}
			if probe != nil {
				for pi := range pols {
					if err := probe.probe(ctx, fmt.Sprintf("%s/p%d", req, pi), block, par.CellAt(0, pi, 0).Config); err != nil {
						e.check(err)
					}
				}
			}
			tr.end(block)
			blocks = append(blocks, b)
		}
		return blocks, nil
	}

	before := sampleRuntime()
	blocks, err := pass(nil, nil)
	if err != nil {
		return err
	}
	cells := 0
	var tSer, tPar time.Duration
	var jobMs []float64
	for _, b := range blocks {
		cells += b.cells
		tSer += b.tSerial
		tPar += b.tPar
		jobMs = append(jobMs, ms(b.tPar))
	}
	e.runtimeLayer(before, sampleRuntime(), 2*cells)
	e.peakRSS()
	e.e2e["cells_per_s"] = float64(cells) / tPar.Seconds()
	e.e2e["serial_cells_per_s"] = float64(cells) / tSer.Seconds()
	e.e2e["job_ms_p50"] = median(jobMs)
	e.note("table2 blocks=%d cells=%d per pass, serial %.3fs, %d workers %.3fs", len(blocks), cells, tSer.Seconds(), e.nproc, tPar.Seconds())
	if e.nproc > 1 {
		e.note("table2 speedup %.3fx on %d workers", tSer.Seconds()/tPar.Seconds(), e.nproc)
	} else {
		e.note("table2 speedup not published: one CPU measures scheduling overhead, not parallelism")
	}

	if e.opt.trace {
		tr := newTracer()
		probe := &cellProbe{tr: tr}
		traced, err := pass(tr, probe)
		if err != nil {
			return err
		}
		tc := 0
		var tt time.Duration
		for _, b := range traced {
			tc += b.cells
			tt += b.tPar
		}
		e.overhead(e.e2e["cells_per_s"], float64(tc)/tt.Seconds())
		blocks = append(blocks, traced...)
		probe.record(e)
		pool.record(e)
		if err := tr.report(e); err != nil {
			return err
		}
	}

	// Correctness gate: serial and parallel passes byte-identical, and
	// the Table 2 shape on every block.
	for i, b := range blocks {
		e.attempted += 2 * b.cells
		e.failed += 2 * b.failed
		e.checkf(b.identical, "block %d: serial and %d-worker results differ", i, e.nproc)
		e.checkf(b.failed == 0, "block %d: %d cells failed", i, b.failed)
		e.checkf(b.misses == 0, "block %d: %d missed deadlines, Table 2 has none", i, b.misses)
		mean := make([]float64, len(b.energy))
		for pi, xs := range b.energy {
			mean[pi] = sum(xs) / float64(max(len(xs), 1))
		}
		for pi := range mean {
			e.checkf(pi == 0 || mean[pi] < mean[0], "block %d: policy %d energy %.3f J not below 206.4 MHz's %.3f J", i, pi, mean[pi], mean[0])
			e.checkf(pi == 2 || mean[pi] > mean[2], "block %d: policy %d energy %.3f J not above 132.7 MHz/1.23 V's %.3f J", i, pi, mean[pi], mean[2])
		}
	}
	// The digest covers the first two blocks, which every run computes.
	e.digest = sha256Hex([]byte(blocks[0].serialSum), []byte(blocks[1].serialSum))
	return nil
}

// poolStats accumulates the sweep pool's metrics over traced Sweeps: the
// busy fraction (cell seconds from the sweep's own telemetry timer over
// workers × wall time) and the pool's counts from each result.
type poolStats struct {
	busy, capacity                   float64
	peak, ran, cached, failed, retry int
}

func (p *poolStats) add(tel *clocksched.Telemetry, res *clocksched.SweepResult, wall time.Duration) {
	snap := tel.Registry().Snapshot()
	t := res.Telemetry
	p.busy += snap.Histograms[telemetry.MSweepCellSeconds].Sum
	p.capacity += float64(t.Workers) * wall.Seconds()
	p.peak = max(p.peak, t.PeakBusy)
	p.ran += t.Ran
	p.cached += t.Cached
	p.failed += t.Failed + t.Skipped
	p.retry += t.Retried
}

func (p *poolStats) record(e *env) {
	if p.capacity > 0 {
		e.layer["sweep.busy_frac"] = p.busy / p.capacity
	}
	e.layer["sweep.peak_busy"] = float64(p.peak)
	e.layer["sweep.ran"] = float64(p.ran)
	e.layer["sweep.cached"] = float64(p.cached)
	e.layer["sweep.failed"] = float64(p.failed)
	e.layer["sweep.retried"] = float64(p.retry)
}
