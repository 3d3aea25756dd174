// Command experiments regenerates every table and figure of the paper's
// evaluation — plus the extension experiments — from the simulation,
// printing each summary to stdout and writing the raw artifacts under -out.
//
// Every grid-backed experiment sweeps its cells through one executor. By
// default that is the local worker pool: -workers goroutines, cells cached
// under <out>/cache and committed to <out>/sweep.wal between invocations,
// so an interrupted run resumes with -resume. -remote hands every grid to
// one sweepd daemon instead, and -peers coordinates every grid across a
// fabric of daemons (shards, leases, work-stealing; the lease ledger under
// <out>/fabric resumes an interrupted grid on the next run). The results
// are byte-identical whatever the executor, worker count, or cache state.
// Interrupting the run (Ctrl-C) stops the simulations at the next quantum
// boundary.
//
// Usage:
//
//	experiments            # everything, results into ./results
//	experiments -only table2
//	experiments -list
//	experiments -out /tmp/repro -seed 3 -workers 4
//	experiments -nocache   # recompute every cell
//	experiments -only table2 -remote http://localhost:8900
//	experiments -peers http://node1:8900,http://node2:8900
//	experiments -only fleet                                  # 10k-device population sweep
//
// The fleet experiment simulates a seeded population of device sessions
// (CLOCKSCHED_FLEET_DEVICES overrides the 10k default) and reduces them to
// per-policy energy percentiles, miss rates, and the infeasible bucket.
//
// Cache entries written before every experiment ran on the public sweep
// path (and the fleet experiment's former fleet-only cache directory) are
// keyed differently and simply miss; delete them at leisure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/paper"
	"clocksched/internal/service"
	"clocksched/internal/sweep"
)

func main() {
	var (
		outDir  = flag.String("out", "results", "directory for raw artifact files")
		only    = flag.String("only", "", "run only the named experiment (see -list)")
		list    = flag.Bool("list", false, "list the available experiments and exit")
		seed    = flag.Uint64("seed", 1, "workload jitter seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers for grid experiments")
		nocache = flag.Bool("nocache", false, "skip the on-disk cell cache under <out>/cache")
		resume  = flag.Bool("resume", false,
			"resume an interrupted run: replay cells committed to <out>/sweep.wal from the cache")
		cellTimeout = flag.Duration("cell-timeout", 0,
			"wall-clock budget per grid cell attempt (0 disables)")
		retries = flag.Int("retries", 0,
			"retry budget per grid cell for transient failures, with seeded exponential backoff")
		telAddr = flag.String("telemetry", "",
			"serve live telemetry on this address (e.g. :8080): /metrics, /metrics.json, /debug/vars, /debug/pprof")
		progress = flag.Bool("progress", false,
			"print per-cell completion counts for grid experiments; resumed runs start at the replayed count")
		remote = flag.String("remote", "",
			"submit every grid to a sweepd daemon at this base URL (e.g. http://localhost:8900) instead of simulating locally")
		peers = flag.String("peers", "",
			"comma-separated sweepd base URLs: coordinate every grid across the fleet via the fabric (shards, leases, work-stealing)")
		peerToken = flag.String("peer-token", "", "bearer token sent to every -peers daemon")
	)
	flag.Parse()

	if *list {
		for _, e := range paper.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.Paper)
		}
		return
	}

	// run holds the defers (telemetry drain, signal handling) so they fire on
	// every exit path, including an interrupt; os.Exit would skip them.
	os.Exit(run(outDir, only, seed, workers, nocache, resume, cellTimeout, retries, telAddr, progress, remote, peers, peerToken))
}

func run(outDir, only *string, seed *uint64, workers *int, nocache, resume *bool,
	cellTimeout *time.Duration, retries *int, telAddr *string, progress *bool, remote, peers, peerToken *string) int {

	if *remote != "" && *peers != "" {
		fmt.Fprintln(os.Stderr, "experiments: -remote and -peers are mutually exclusive (one daemon vs a coordinated fleet)")
		return 2
	}
	local := *remote == "" && *peers == ""
	if local && *resume && *nocache {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs the cell cache (drop -nocache)")
		return 2
	}

	experiments := paper.Registry()
	if *only != "" {
		e, ok := paper.Find(strings.ToLower(*only))
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *only)
			return 2
		}
		experiments = []paper.Experiment{e}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var onProgress func(done, total int)
	if *progress {
		onProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "experiments: cell %d/%d\n", done, total)
		}
	}
	var tel *clocksched.Telemetry
	if *telAddr != "" {
		tel = clocksched.NewTelemetry()
		addr, err := tel.Serve(*telAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: telemetry:", err)
			return 1
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			tel.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s/metrics\n", addr)
	}

	env := paper.Env{Ctx: ctx, Seed: *seed}
	switch {
	case *remote != "":
		env.Exec = paper.Remote(&service.Client{Base: *remote}, onProgress)
	case *peers != "":
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		env.Exec = paper.Fabric(fabric.Config{
			Peers:     list,
			Token:     *peerToken,
			Dir:       filepath.Join(*outDir, "fabric"),
			Seed:      *seed,
			Progress:  onProgress,
			Telemetry: tel.Registry(),
		})
	default:
		res := clocksched.SweepConfig{
			Workers:     *workers,
			CellTimeout: *cellTimeout,
			Retries:     *retries,
			Progress:    onProgress,
			Telemetry:   tel,
		}
		if !*nocache {
			cache, err := clocksched.NewSweepCache(0, filepath.Join(*outDir, "cache"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cache:", err)
				return 1
			}
			// Each completed cell is committed to the journal; relaunching
			// with -resume replays them from the cache instead of
			// re-simulating.
			res.Cache = cache
			res.Journal = filepath.Join(*outDir, "sweep.wal")
			res.Resume = *resume
			if *resume {
				jr, err := sweep.OpenCellJournal(res.Journal, true, nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments: journal:", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "experiments: resume: %d cell(s) recovered from journal\n", jr.Recovered())
				jr.Close()
			}
		}
		env.Exec = paper.Local(res)
	}

	var written []string
	for _, e := range experiments {
		fmt.Printf("==> %s — %s\n", e.Name, e.Paper)
		summary, artifacts, err := e.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			if ctx.Err() != nil {
				switch {
				case *peers != "":
					fmt.Fprintln(os.Stderr, "experiments: interrupted; committed shards are ledgered — run again to resume")
				case local && !*nocache:
					fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells are journaled — run again with -resume")
				}
			}
			return 1
		}
		fmt.Print(summary)
		for _, a := range artifacts {
			if err := os.WriteFile(filepath.Join(*outDir, a.Name), []byte(a.Content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			written = append(written, a.Name)
		}
		fmt.Println()
	}

	// Leave a browsable index behind when running the full suite.
	if *only == "" && len(written) > 0 {
		index := paper.IndexHTML(written)
		if err := os.WriteFile(filepath.Join(*outDir, "index.html"), []byte(index), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("index written to %s\n", filepath.Join(*outDir, "index.html"))
	}
	return 0
}
