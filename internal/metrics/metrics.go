// Package metrics collects the quality-of-service measures the paper judges
// schedulers by: whether application deadlines were met ("we consider an
// event to have occurred on time if delaying its completion did not
// adversely affect the user"), how late misses were, and how unstable the
// clock setting was.
package metrics

import (
	"fmt"
	"strconv"

	"clocksched/internal/sim"
)

// Deadline is one timing obligation an application reported: work that was
// due at Due and actually completed at Done. Stream and Seq identify it:
// the obligation's kind ("frame", "audio", "loop", ...) and its index
// within that stream.
type Deadline struct {
	Stream string
	Seq    int
	Due    sim.Time
	Done   sim.Time
}

// Name formats the deadline's identity for reports, e.g. "frame-42".
func (d Deadline) Name() string { return d.Stream + "-" + strconv.Itoa(d.Seq) }

// Late returns how far past its due time the work completed (≤ 0 if on
// time).
func (d Deadline) Late() sim.Duration { return d.Done - d.Due }

// Collector folds deadlines into the digests every report reads — the
// count, each stream's worst lateness, and the positive latenesses — and
// keeps no per-deadline record, so a long run costs no memory per
// deadline. The zero value is ready to use.
type Collector struct {
	// OnRecord, when set, observes each deadline as it is recorded. The
	// run harness uses it to feed the watchdog's miss detector without
	// policies importing this package.
	OnRecord func(Deadline)

	count int
	// late holds every positive lateness, in record order: with slack
	// ≥ 0 they are all MissCount needs.
	late []sim.Duration
	// worst is each stream's largest lateness (never below zero), in
	// first-record order; a run has a handful of streams.
	worst []streamWorst
}

type streamWorst struct {
	stream string
	late   sim.Duration
}

// Record notes one completed obligation: the seq-th of its stream, due at
// due and done at done.
func (c *Collector) Record(stream string, seq int, due, done sim.Time) {
	d := Deadline{Stream: stream, Seq: seq, Due: due, Done: done}
	c.count++
	l := max(d.Late(), 0)
	if l > 0 {
		c.late = append(c.late, l)
	}
	i := 0
	for i < len(c.worst) && c.worst[i].stream != stream {
		i++
	}
	if i == len(c.worst) {
		c.worst = append(c.worst, streamWorst{stream: stream})
	}
	if l > c.worst[i].late {
		c.worst[i].late = l
	}
	if c.OnRecord != nil {
		c.OnRecord(d)
	}
}

// Count returns the number of recorded deadlines.
func (c *Collector) Count() int { return c.count }

// MissCount returns how many obligations completed more than slack after
// their due time. The paper's inelastic-constraint assumption corresponds
// to a small perceptual slack. Slack must be ≥ 0; a negative slack counts
// as zero.
func (c *Collector) MissCount(slack sim.Duration) int {
	n := 0
	for _, l := range c.late {
		if l > slack {
			n++
		}
	}
	return n
}

// MaxLateness returns the largest lateness observed (zero if everything was
// early or nothing was recorded).
func (c *Collector) MaxLateness() sim.Duration {
	return c.MaxLatenessFor("")
}

// MaxLatenessFor returns the largest lateness in the named stream (every
// stream for the empty name). Zero if nothing matched or everything was
// early.
func (c *Collector) MaxLatenessFor(stream string) sim.Duration {
	var max sim.Duration
	for _, w := range c.worst {
		if (stream == "" || w.stream == stream) && w.late > max {
			max = w.late
		}
	}
	return max
}

// Desync returns the difference between the worst lateness of two deadline
// streams — the paper's audio/video synchronization measure: when the video
// stream runs late while the audio stream stays on schedule, the clip is
// audibly out of sync.
func (c *Collector) Desync(streamA, streamB string) sim.Duration {
	a := c.MaxLatenessFor(streamA)
	b := c.MaxLatenessFor(streamB)
	if a > b {
		return a - b
	}
	return b - a
}

// MissRate returns the fraction of deadlines missed by more than slack.
func (c *Collector) MissRate(slack sim.Duration) float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.MissCount(slack)) / float64(c.count)
}

// Summary formats the collector for reports.
func (c *Collector) Summary(slack sim.Duration) string {
	return fmt.Sprintf("%d deadlines, %d missed (slack %v), max lateness %v",
		c.Count(), c.MissCount(slack), slack, c.MaxLateness())
}
