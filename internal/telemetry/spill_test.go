package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clocksched/internal/journal"
)

func TestSpillEventsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	w, _, err := journal.Open(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.Emit("before.spill") // emitted before attach: ring only, never spilled
	r.SpillEvents(w)
	const n = EventCap + 50 // overflow the ring to prove the spill keeps all
	for i := 0; i < n; i++ {
		r.Emit("cell.done", F("cell", fmt.Sprint(i)))
	}
	r.SpillEvents(nil) // detach
	r.Emit("after.detach")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("spilled %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Name != "cell.done" || len(e.Fields) != 1 || e.Fields[0].Value != fmt.Sprint(i) {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.Seq != uint64(i+2) { // seq 1 was before.spill
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	// The in-memory ring kept only the newest EventCap, the log kept all.
	if got := len(r.Events()); got != EventCap {
		t.Errorf("ring holds %d events, want %d", got, EventCap)
	}
	snap := r.Snapshot()
	if got := snap.Counters[MEventsSpilled]; got != n {
		t.Errorf("%s = %v, want %d", MEventsSpilled, got, n)
	}
	if got := snap.Counters[MEventSpillErrors]; got != 0 {
		t.Errorf("%s = %v, want 0", MEventSpillErrors, got)
	}
}

func TestSpillTornTailIsDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	w, _, err := journal.Open(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SpillEvents(w)
	r.Emit("one")
	r.Emit("two")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Name != "one" {
		t.Fatalf("events after torn tail: %+v", evs)
	}
}

func TestSpillConcurrentEmit(t *testing.T) {
	// Emit from many goroutines while spilling; every event must land in the
	// log exactly once (the -race tier cares about the locking too).
	path := filepath.Join(t.TempDir(), "events.wal")
	w, _, err := journal.Open(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SpillEvents(w)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit("tick")
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != workers*per {
		t.Fatalf("spilled %d events, want %d", len(evs), workers*per)
	}
}

func TestServerShutdownGraceful(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is gone: a new scrape must fail.
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting after Shutdown")
	}
}
