package daq

import (
	"fmt"

	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// Summary is the digest of one measurement window: everything the
// experiment harnesses report (energy, average, peak, sample count)
// without the materialized per-sample array a Capture carries.
type Summary struct {
	Config Config
	Start  sim.Time
	// Window is the requested capture span (end − start); the trailing
	// partial interval, if any, is weighted accordingly in EnergyJ.
	Window sim.Duration
	// Samples is how many readings the instrument took.
	Samples int
	// EnergyJ is Σ pᵢ·Δt with the partial-window overhang refunded —
	// the same integral Capture.Energy computes.
	EnergyJ float64
	// AvgPowerW is the mean of the readings, in watts.
	AvgPowerW float64
	// PeakW is the largest reading, in watts.
	PeakW float64
}

// Duration returns the time span the summary covers.
func (s Summary) Duration() sim.Duration {
	if s.Window > 0 {
		return s.Window
	}
	return sim.Duration(s.Samples) * s.Config.SampleInterval
}

// MeanCurrent returns the average supply current implied by the window, in
// amperes, as the instrument operator would compute it from the shunt.
func (s Summary) MeanCurrent() float64 {
	if s.Config.SupplyVolts <= 0 {
		return 0
	}
	return s.AvgPowerW / s.Config.SupplyVolts
}

// Integrator folds a power timeline into a Summary segment by segment, as
// the timeline is produced: it implements power.SegmentSink, so a run can
// stream its recorder into it and never keep the trace. The readings are
// Sample's — one every SampleInterval from the window start, quantized to
// the ADC grid — but only their digest is kept.
//
// On a fault-free instrument every reading inside one segment sees the
// same power, so the segment is quantized once and weighted by its reading
// count: O(segments) per window, no allocation. The segment-ordered energy
// accumulation sums in a different order than the sample-ordered loop in
// Capture.Energy, so totals may differ from it at ULP scale — the
// clocksched-sim/4 measurement-path bump.
//
// With sample faults enabled (drops or glitches) every reading needs its
// own RNG draw, so the integrator walks the readings one by one as their
// segments arrive. Readings arrive in time order, so the draws are made in
// exactly the order Sample makes them and fault schedules stay
// bit-identical between the two paths.
type Integrator struct {
	cfg        Config
	start, end sim.Time
	n          int64 // readings in the window
	faulty     bool

	total, peak, last float64
	// psum accumulates Σp on the per-sample path, where bit-identity with
	// Capture.AveragePower (which divides Σp by n) is promised; the batched
	// path recovers the mean from the energy total instead.
	psum float64
	// next is the per-sample path's next reading index, and held the
	// last good quantized reading a dropped conversion repeats.
	next int64
	held float64
	// covered is how far into the timeline segments have arrived.
	covered sim.Time

	telDropped, telGlitched *telemetry.Counter
}

// NewIntegrator starts measuring the window [start, end). Feed it the
// timeline's segments in order, then call Summary once.
func NewIntegrator(start, end sim.Time, cfg Config) (*Integrator, error) {
	in := &Integrator{}
	if err := in.init(start, end, cfg); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *Integrator) init(start, end sim.Time, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if start < 0 || end <= start {
		return fmt.Errorf("daq: bad capture window [%v, %v)", start, end)
	}
	interval := cfg.SampleInterval
	// Ceiling division: a trailing partial interval gets its own reading
	// rather than being silently dropped from the energy integral.
	*in = Integrator{
		cfg:         cfg,
		start:       start,
		end:         end,
		n:           int64((end - start + interval - 1) / interval),
		telDropped:  cfg.Telemetry.Counter(telemetry.MDAQSamplesDropped),
		telGlitched: cfg.Telemetry.Counter(telemetry.MDAQSamplesGlitched),
	}
	if f := cfg.Faults; f != nil {
		p := f.Plan()
		in.faulty = p.SampleDropProb > 0 || p.SampleGlitchProb > 0
	}
	return nil
}

// Segment takes the timeline's next segment: the system drew watts over
// [from, to). Segments must abut and arrive in time order, the first
// starting at or before the window start.
func (in *Integrator) Segment(from, to sim.Time, watts float64) {
	in.covered = to
	if to > in.end {
		to = in.end
	}
	interval := in.cfg.SampleInterval
	if in.faulty {
		for ; in.next < in.n; in.next++ {
			if in.start+sim.Time(in.next)*interval >= to {
				return
			}
			if in.cfg.Faults.DropSample() {
				in.telDropped.Inc()
			} else {
				w := watts
				if g, ok := in.cfg.Faults.GlitchWatts(); ok {
					in.telGlitched.Inc()
					w += g
				}
				in.held = in.cfg.quantize(w)
			}
			in.total += in.held * interval.Seconds()
			in.psum += in.held
			if in.held > in.peak {
				in.peak = in.held
			}
			in.last = in.held
		}
		return
	}
	// Reading i falls in the segment whose span contains start + i·interval.
	if to <= in.start || from >= in.end {
		return
	}
	// First reading index at or after from, last before to.
	i0 := int64(0)
	if from > in.start {
		i0 = int64(from-in.start+interval-1) / int64(interval)
	}
	i1 := int64(to-in.start+interval-1) / int64(interval)
	if i1 > in.n {
		i1 = in.n
	}
	if i1 <= i0 {
		return
	}
	q := in.cfg.quantize(watts)
	in.total += q * float64(i1-i0) * interval.Seconds()
	if q > in.peak {
		in.peak = q
	}
	if i1 == in.n {
		in.last = q
	}
}

// Summary closes the window and returns its digest. It fails when the
// segments fed so far stop short of the window end. Call it once.
func (in *Integrator) Summary() (Summary, error) {
	if in.covered < in.end {
		return Summary{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			in.end, in.covered)
	}
	interval := in.cfg.SampleInterval
	window := in.end - in.start
	n := in.n
	sum := Summary{Config: in.cfg, Start: in.start, Window: window, Samples: int(n)}
	total := in.total
	if covered := sim.Duration(n) * interval; window < covered {
		// The last reading overhangs the window; refund the overhang.
		total -= in.last * (covered - window).Seconds()
	}
	sum.EnergyJ = total
	sum.PeakW = in.peak
	if n > 0 {
		if in.faulty {
			sum.AvgPowerW = in.psum / float64(n)
		} else {
			// Mean of the readings: each reading contributed interval·p to
			// the pre-refund total, so dividing by the full covered span
			// recovers Σp/n up to summation order.
			sum.AvgPowerW = (total + in.last*(sim.Duration(n)*interval-window).Seconds()) /
				(sim.Duration(n) * interval).Seconds()
		}
	}
	tel := in.cfg.Telemetry
	tel.Counter(telemetry.MDAQCaptures).Inc()
	tel.Counter(telemetry.MDAQSamples).Add(n)
	return sum, nil
}

// Integrate measures rec over [start, end) the way Sample does, by
// replaying the recorder's timeline through an Integrator — the same
// floating-point operations, in the same order, as a run that streamed
// its recorder into one.
func Integrate(rec *power.Recorder, start, end sim.Time, cfg Config) (Summary, error) {
	var in Integrator
	if err := in.init(start, end, cfg); err != nil {
		return Summary{}, err
	}
	if end > rec.End() {
		return Summary{}, fmt.Errorf("daq: capture window ends at %v but timeline ends at %v",
			end, rec.End())
	}
	points := rec.Points()
	if start < points[0].At {
		return Summary{}, fmt.Errorf("daq: capture window starts at %v but the recorder kept the timeline only from %v",
			start, points[0].At)
	}
	for i, p := range points {
		to := rec.End()
		if i+1 < len(points) {
			to = points[i+1].At
		}
		in.Segment(p.At, to, p.Watts)
	}
	return in.Summary()
}

// Summarize folds an already-materialized capture into the same digest
// Integrate produces, for callers that need both the raw samples and the
// summary quantities.
func Summarize(c Capture) Summary {
	return Summary{
		Config:    c.Config,
		Start:     c.Start,
		Window:    c.Window,
		Samples:   len(c.Samples),
		EnergyJ:   c.Energy(),
		AvgPowerW: c.AveragePower(),
		PeakW:     c.PeakPower(),
	}
}
