package power

import (
	"errors"
	"fmt"
	"sort"

	"clocksched/internal/sim"
)

// TimePoint is one change-point in a piecewise-constant power timeline: the
// system drew Watts from At until the next point.
type TimePoint struct {
	At    sim.Time
	Watts float64
}

// Recorder accumulates the exact piecewise-constant power timeline of a run.
// The kernel reports every state change; energy integrals over the recorded
// span are then exact, and the simulated DAQ samples the same timeline at
// 5 kHz the way the real instrument sampled the shunt resistor.
type Recorder struct {
	model  Model
	points []TimePoint
	last   sim.Time // latest time seen; timeline is valid up to here
	closed bool

	// sink, when set by Stream, receives every segment once it is final;
	// sent counts the leading points whose segments it has received.
	sink SegmentSink
	sent int
	// discard drops each segment once handed to the sink, so the
	// recorder holds only the open tail of the timeline.
	discard bool
}

// SegmentSink receives a power timeline's segments in time order: the
// system drew watts over [from, to). Consecutive segments abut, and the
// first starts at the timeline's first change-point.
type SegmentSink interface {
	Segment(from, to sim.Time, watts float64)
}

// NewRecorder creates a recorder that starts at time 0 in the given state.
func NewRecorder(m Model, initial State) *Recorder {
	r := &Recorder{model: m}
	r.points = append(r.points, TimePoint{At: 0, Watts: m.Power(initial)})
	return r
}

// Model returns the power model in use.
func (r *Recorder) Model() Model { return r.model }

// ErrClosed is returned for state changes after Finish.
var ErrClosed = errors.New("power: state change after Finish")

// ErrOrder is returned for state changes that move backwards in time.
var ErrOrder = errors.New("power: state change out of time order")

// SetState records that the system entered st at time now. Calls must be in
// nondecreasing time order; an out-of-order call returns ErrOrder, since
// the kernel driving the recorder is single-threaded virtual time and
// regression means its event schedule is inconsistent.
func (r *Recorder) SetState(now sim.Time, st State) error {
	return r.setWatts(now, r.model.Power(st))
}

// SetWatts records a raw power level, for experiments that bypass the model
// (e.g. injecting a measured trace).
func (r *Recorder) SetWatts(now sim.Time, w float64) error { return r.setWatts(now, w) }

func (r *Recorder) setWatts(now sim.Time, w float64) error {
	if r.closed {
		return fmt.Errorf("%w: at %v", ErrClosed, now)
	}
	if now < r.last {
		return fmt.Errorf("%w: %v after %v", ErrOrder, now, r.last)
	}
	r.last = now
	last := &r.points[len(r.points)-1]
	if last.Watts == w {
		return nil // no change; keep the timeline minimal
	}
	if last.At == now {
		// Same-instant revision (e.g. step change and mode change in one
		// event): the later write wins.
		last.Watts = w
		// Collapse if this made it equal to its predecessor.
		if n := len(r.points); n >= 2 && r.points[n-2].Watts == w {
			r.points = r.points[:n-1]
		}
		return nil
	}
	r.points = append(r.points, TimePoint{At: now, Watts: w})
	r.flush(len(r.points) - 2)
	return nil
}

// Stream hands the timeline to sink segment by segment as the run
// produces it, instead of leaving it for a replay of Points after Finish.
// A segment is final once two later change-points exist: a same-instant
// revision can rewrite or collapse only the last point, which moves only
// the end of the segment before it. Finish flushes the rest. With keep
// false the recorder drops each segment once handed over, so Points,
// PowerAt and Energy then cover only the open tail of the timeline.
func (r *Recorder) Stream(sink SegmentSink, keep bool) {
	r.sink = sink
	r.discard = !keep
	r.flush(len(r.points) - 2)
}

// flush hands the segments of points[sent:upto] to the sink, then drops
// them when the recorder does not keep the timeline.
func (r *Recorder) flush(upto int) {
	if r.sink == nil {
		return
	}
	for ; r.sent < upto; r.sent++ {
		to := r.last
		if r.sent+1 < len(r.points) {
			to = r.points[r.sent+1].At
		}
		r.sink.Segment(r.points[r.sent].At, to, r.points[r.sent].Watts)
	}
	if r.discard && r.sent > 0 {
		// Keep the last point even once sent: it draws power up to r.last.
		drop := min(r.sent, len(r.points)-1)
		n := copy(r.points, r.points[drop:])
		r.points = r.points[:n]
		r.sent -= drop
	}
}

// Finish marks the timeline complete at time end. Further SetState calls
// return ErrClosed. Energy and PowerAt remain usable up to end.
func (r *Recorder) Finish(end sim.Time) error {
	if end < r.last {
		return fmt.Errorf("%w: finish at %v before last change at %v", ErrOrder, end, r.last)
	}
	r.last = end
	r.closed = true
	r.flush(len(r.points))
	return nil
}

// End returns the latest time covered by the timeline.
func (r *Recorder) End() sim.Time { return r.last }

// Points returns the recorded change-points: the whole timeline, or only
// its open tail when Stream discards. The slice is the recorder's own;
// callers must not modify it.
func (r *Recorder) Points() []TimePoint { return r.points }

// ErrRange is returned for queries outside the recorded timeline.
var ErrRange = errors.New("power: query outside recorded timeline")

// PowerAt returns the instantaneous power at time t.
func (r *Recorder) PowerAt(t sim.Time) (float64, error) {
	if t < r.points[0].At || t > r.last {
		return 0, ErrRange
	}
	// Binary search for the last point with At <= t.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].At > t })
	return r.points[i-1].Watts, nil
}

// Energy integrates power over [from, to] exactly, returning joules.
func (r *Recorder) Energy(from, to sim.Time) (float64, error) {
	if from < r.points[0].At || to > r.last || from > to {
		return 0, ErrRange
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].At > from }) - 1
	total := 0.0
	for t := from; t < to; {
		segEnd := to
		if i+1 < len(r.points) && r.points[i+1].At < to {
			segEnd = r.points[i+1].At
		}
		total += r.points[i].Watts * (segEnd - t).Seconds()
		t = segEnd
		i++
	}
	return total, nil
}

// AveragePower returns the mean power over [from, to] in watts.
func (r *Recorder) AveragePower(from, to sim.Time) (float64, error) {
	if to <= from {
		return 0, ErrRange
	}
	e, err := r.Energy(from, to)
	if err != nil {
		return 0, err
	}
	return e / (to - from).Seconds(), nil
}
