package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// reqKey carries a request id and the span of the call that issued a
// request in the call's context, so the transport's span joins them.
type reqKey struct{}

type reqInfo struct {
	req    string
	parent int
}

func withReq(ctx context.Context, req string, parent int) context.Context {
	return context.WithValue(ctx, reqKey{}, reqInfo{req, parent})
}

// traceHandler wraps a server's http.Handler and, while a tracer is
// installed, records one span per request it serves.
type traceHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	name, id := route(r.Method, r.URL.Path)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	tr.add("server "+name, id, 0, t0, time.Now())
}

// traceTransport wraps a client's RoundTripper: one span per request,
// named by route, and a count of requests. When onDone is set it also
// buffers each response body and hands it over, restoring it for the
// caller.
type traceTransport struct {
	base http.RoundTripper
	tr   *tracer

	reqs atomic.Int64
	// parent is the span that requests without a reqKey belong to: the
	// fabric Run under way.
	parent atomic.Int64

	onDone func(r *http.Request, status int, body []byte, t0, t1 time.Time)
}

func newTraceTransport(tr *tracer) *traceTransport {
	return &traceTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
}

func (t *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.reqs.Add(1)
	name, id := route(r.Method, r.URL.Path)
	parent := int(t.parent.Load())
	if info, ok := r.Context().Value(reqKey{}).(reqInfo); ok {
		id, parent = info.req, info.parent
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err == nil && t.onDone != nil && !strings.HasSuffix(r.URL.Path, "/events") {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if err == nil {
			t.onDone(r, resp.StatusCode, body, t0, time.Now())
		}
	}
	t.tr.add("http "+name, id, parent, t0, time.Now())
	return resp, err
}

// scrape reads a service's Prometheus /metrics page through its handler
// and sums each series over its labels (gauges named *_peak take the
// maximum instead), keeping only the result label:
// sweep_cells_total{job="j1",result="run"} and the same series of every
// other job add into sweep_cells_total{result="run"}.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		base, labels, _ := strings.Cut(name, "{")
		key := base
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if strings.HasPrefix(l, "result=") {
				key += "{" + l + "}"
			}
		}
		if strings.HasSuffix(base, "_peak") {
			out[key] = max(out[key], v)
		} else {
			out[key] += v
		}
	}
	return out
}

// scrapeAll adds up the scrapes of several daemons.
func scrapeAll(hs []http.Handler) map[string]float64 {
	out := map[string]float64{}
	for _, h := range hs {
		for k, v := range scrape(h) {
			out[k] += v
		}
	}
	return out
}

func delta(after, before map[string]float64, key string) float64 { return after[key] - before[key] }

// cacheHitRatio is the share of a pass's cells the servers served from
// their caches.
func cacheHitRatio(after, before map[string]float64) float64 {
	cached := delta(after, before, `sweep_cells_total{result="cached"}`)
	ran := delta(after, before, `sweep_cells_total{result="run"}`)
	if cached+ran == 0 {
		return 0
	}
	return cached / (cached + ran)
}
