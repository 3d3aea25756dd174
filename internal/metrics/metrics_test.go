package metrics

import (
	"slices"
	"strings"
	"testing"

	"clocksched/internal/sim"
)

func TestDeadlineLate(t *testing.T) {
	d := Deadline{Due: 100, Done: 130}
	if d.Late() != 30 {
		t.Errorf("Late = %v", d.Late())
	}
	early := Deadline{Due: 100, Done: 80}
	if early.Late() != -20 {
		t.Errorf("early Late = %v", early.Late())
	}
}

func TestCollectorZeroValue(t *testing.T) {
	var c Collector
	if c.Count() != 0 || c.MissCount(0) != 0 || c.MaxLateness() != 0 || c.MissRate(0) != 0 {
		t.Error("zero-value collector not empty")
	}
}

func TestCollectorMisses(t *testing.T) {
	var c Collector
	var names []string
	c.OnRecord = func(d Deadline) { names = append(names, d.Name()) }
	c.Record("frame", 1, 100, 90)  // early
	c.Record("frame", 2, 200, 205) // 5 late
	c.Record("frame", 3, 300, 350) // 50 late
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	if got := c.MissCount(0); got != 2 {
		t.Errorf("MissCount(0) = %d, want 2", got)
	}
	if got := c.MissCount(10); got != 1 {
		t.Errorf("MissCount(10) = %d, want 1", got)
	}
	if got := c.MissCount(100); got != 0 {
		t.Errorf("MissCount(100) = %d, want 0", got)
	}
	if got := c.MaxLateness(); got != 50 {
		t.Errorf("MaxLateness = %v, want 50", got)
	}
	if got := c.MissRate(0); got != 2.0/3 {
		t.Errorf("MissRate = %v", got)
	}
	if want := []string{"frame-1", "frame-2", "frame-3"}; !slices.Equal(names, want) {
		t.Errorf("OnRecord saw %v, want %v", names, want)
	}
}

func TestCollectorSummary(t *testing.T) {
	var c Collector
	c.Record("x", 1, 100, 200)
	s := c.Summary(sim.Millisecond)
	if !strings.Contains(s, "1 deadlines") || !strings.Contains(s, "0 missed") {
		t.Errorf("Summary = %q", s)
	}
	s = c.Summary(0)
	if !strings.Contains(s, "1 missed") {
		t.Errorf("Summary = %q", s)
	}
}

func TestMaxLatenessFor(t *testing.T) {
	var c Collector
	c.Record("frame", 1, 100, 150) // 50 late
	c.Record("frame", 2, 200, 210) // 10 late
	c.Record("audio", 1, 100, 105) // 5 late
	if got := c.MaxLatenessFor("frame"); got != 50 {
		t.Errorf("MaxLatenessFor(frame) = %v, want 50", got)
	}
	if got := c.MaxLatenessFor("audio"); got != 5 {
		t.Errorf("MaxLatenessFor(audio) = %v, want 5", got)
	}
	if got := c.MaxLatenessFor(""); got != 50 {
		t.Errorf("MaxLatenessFor(all) = %v, want 50", got)
	}
	if got := c.MaxLatenessFor("nothing"); got != 0 {
		t.Errorf("MaxLatenessFor(miss) = %v, want 0", got)
	}
}

func TestDesync(t *testing.T) {
	var c Collector
	c.Record("frame", 1, 100, 180) // 80 late
	c.Record("audio", 1, 100, 110) // 10 late
	if got := c.Desync("frame", "audio"); got != 70 {
		t.Errorf("Desync = %v, want 70", got)
	}
	// Symmetric.
	if got := c.Desync("audio", "frame"); got != 70 {
		t.Errorf("Desync reversed = %v, want 70", got)
	}
	var empty Collector
	if empty.Desync("a", "b") != 0 {
		t.Error("empty collector desync nonzero")
	}
}
