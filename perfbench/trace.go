package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request (a job, a fabric Run, a cell) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a span.
func (t *tracer) add(name, req string, parent int, from, to time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: from.Sub(t.epoch).Nanoseconds(), End: to.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// durations returns the durations of every closed span with this name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// count returns how many spans carry this name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover (children may overlap one another; their
// union is what is subtracted).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// report prints each layer's self time and writes every span to
// <out>/traces/<workload>-seed<n>.json.
func (t *tracer) report(e *env) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.note("self %s %.3f ms (%d spans)", n, ms(self[n]), t.count(n))
	}
	dir := filepath.Join(e.opt.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.opt.workload, e.opt.seed))
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	e.note("spans %d written to %s", len(t.spans), path)
	return nil
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC CPU
// counters; the difference of two gives the runtime.* layer metrics.
type runtimeSample struct {
	alloc, mallocs uint64
	gcCPU, allCPU  float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[1].Value.Float64()
	}
	return out
}

// runtimeLayer records the runtime.* metrics of the work between two
// samples that completed cells cells.
func (e *env) runtimeLayer(a, b runtimeSample, cells int) {
	if cells > 0 {
		e.layer["runtime.alloc_kb_per_cell"] = float64(b.alloc-a.alloc) / 1024 / float64(cells)
		e.layer["runtime.mallocs_per_cell"] = float64(b.mallocs-a.mallocs) / float64(cells)
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		e.layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// overhead records the tracing overhead: the traced pass's throughput
// loss against the untraced pass of the same invocation.
func (e *env) overhead(untraced, traced float64) {
	if untraced > 0 {
		e.layer["trace.overhead_frac"] = 1 - traced/untraced
	}
}

func sha256Hex(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// route turns a request path into its route pattern, so spans of the same
// endpoint share a name: /v1/jobs/j7/result -> /v1/jobs/{id}/result.
func route(method, path string) (name, id string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 3 && parts[0] == "v1" && parts[1] == "jobs" {
		id = parts[2]
		parts[2] = "{id}"
	}
	return method + " /" + strings.Join(parts, "/"), id
}
