package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

func TestDefaultModelAnchors(t *testing.T) {
	m := DefaultModel()
	// Anchor 1: processor rail at 206.4 MHz / 1.5 V is 1.0 W.
	if got := m.CoreActive(cpu.MaxStep, cpu.VHigh); math.Abs(got-AnchorCoreActiveMax) > 1e-9 {
		t.Errorf("CoreActive(max, 1.5V) = %v, want %v", got, AnchorCoreActiveMax)
	}
	// Anchor 2: dropping to 1.23 V saves 15% of processor power.
	hi := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	lo := m.CoreActive(cpu.MaxStep, cpu.VLow)
	if saving := (hi - lo) / hi; math.Abs(saving-AnchorVoltageSaving) > 1e-9 {
		t.Errorf("voltage saving = %v, want %v", saving, AnchorVoltageSaving)
	}
}

func TestCoreActiveLinearInFrequency(t *testing.T) {
	m := DefaultModel()
	p59 := m.CoreActive(cpu.MinStep, cpu.VHigh)
	pMax := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	wantRatio := float64(cpu.MinStep.KHz()) / float64(cpu.MaxStep.KHz())
	if got := p59 / pMax; math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("power ratio = %v, want frequency ratio %v", got, wantRatio)
	}
}

func TestNapPower(t *testing.T) {
	m := DefaultModel()
	active := m.CoreActive(cpu.MaxStep, cpu.VHigh)
	nap := m.CoreNap(cpu.MaxStep, cpu.VHigh)
	if math.Abs(nap-m.NapRatio*active) > 1e-12 {
		t.Errorf("nap = %v, want %v", nap, m.NapRatio*active)
	}
	if nap >= active {
		t.Error("nap power not below active power")
	}
}

func TestPowerByMode(t *testing.T) {
	m := DefaultModel()
	st := State{Step: cpu.MaxStep, V: cpu.VHigh}

	st.Mode = ModeActive
	active := m.Power(st)
	st.Mode = ModeStall
	stall := m.Power(st)
	st.Mode = ModeNap
	nap := m.Power(st)

	if stall != active {
		t.Errorf("stall power %v != active power %v", stall, active)
	}
	if nap >= active {
		t.Errorf("nap power %v not below active %v", nap, active)
	}
	if nap <= m.PeriphWatts {
		t.Errorf("nap system power %v should exceed the peripheral floor %v",
			nap, m.PeriphWatts)
	}
}

func TestIdleProfileModel(t *testing.T) {
	full := DefaultModel()
	idle := IdleProfileModel()
	if idle.PeriphWatts >= full.PeriphWatts {
		t.Error("idle profile should draw less peripheral power")
	}
	if idle.CoeffA != full.CoeffA || idle.CoeffB != full.CoeffB {
		t.Error("idle profile should not change core coefficients")
	}
}

func TestModeString(t *testing.T) {
	if ModeNap.String() != "nap" || ModeActive.String() != "active" || ModeStall.String() != "stall" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode = %q", Mode(42).String())
	}
}

func activeState() State {
	return State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeActive}
}

func TestRecorderEnergyExact(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeNap}
	// 1 s active, 1 s nap.
	r.SetState(sim.Second, napSt)
	r.Finish(2 * sim.Second)

	activeW := m.Power(activeState())
	napW := m.Power(napSt)

	e, err := r.Energy(0, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := activeW + napW
	if math.Abs(e-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", e, want)
	}

	// Sub-ranges.
	e, _ = r.Energy(0, sim.Second)
	if math.Abs(e-activeW) > 1e-9 {
		t.Errorf("first-second energy = %v, want %v", e, activeW)
	}
	e, _ = r.Energy(500*sim.Millisecond, 1500*sim.Millisecond)
	if math.Abs(e-(activeW+napW)/2) > 1e-9 {
		t.Errorf("straddling energy = %v, want %v", e, (activeW+napW)/2)
	}
}

func TestRecorderEnergyAdditive(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	st := activeState()
	for i := 1; i <= 9; i++ {
		st.Mode = Mode(i % 2) // alternate nap/active
		st.Step = cpu.Step(i % cpu.NumSteps)
		r.SetState(sim.Time(i)*100*sim.Millisecond, st)
	}
	r.Finish(sim.Second)
	whole, err := r.Energy(0, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	split := 0.0
	for i := sim.Time(0); i < 10; i++ {
		e, err := r.Energy(i*100*sim.Millisecond, (i+1)*100*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		split += e
	}
	if math.Abs(whole-split) > 1e-9 {
		t.Errorf("energy not additive: whole %v vs split %v", whole, split)
	}
}

func TestRecorderPowerAt(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MinStep, V: cpu.VHigh, Mode: ModeNap}
	r.SetState(100, napSt)
	r.Finish(200)

	p, err := r.PowerAt(50)
	if err != nil || p != m.Power(activeState()) {
		t.Errorf("PowerAt(50) = %v, %v", p, err)
	}
	p, _ = r.PowerAt(100) // boundary belongs to the new state
	if p != m.Power(napSt) {
		t.Errorf("PowerAt(100) = %v, want nap power", p)
	}
	p, _ = r.PowerAt(200)
	if p != m.Power(napSt) {
		t.Errorf("PowerAt(end) = %v, want nap power", p)
	}
	if _, err := r.PowerAt(201); !errors.Is(err, ErrRange) {
		t.Error("PowerAt beyond end did not return ErrRange")
	}
	if _, err := r.PowerAt(-1); !errors.Is(err, ErrRange) {
		t.Error("PowerAt(-1) did not return ErrRange")
	}
}

func TestRecorderCollapsesNoChange(t *testing.T) {
	r := NewRecorder(DefaultModel(), activeState())
	r.SetState(100, activeState())
	r.SetState(200, activeState())
	if len(r.Points()) != 1 {
		t.Errorf("recorder kept %d points for a constant timeline, want 1", len(r.Points()))
	}
}

func TestRecorderSameInstantRevision(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	napSt := State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: ModeNap}
	stallSt := State{Step: cpu.MinStep, V: cpu.VHigh, Mode: ModeStall}
	r.SetState(100, napSt)
	r.SetState(100, stallSt) // same instant: later write wins
	r.Finish(200)
	p, _ := r.PowerAt(150)
	if p != m.Power(stallSt) {
		t.Errorf("PowerAt after same-instant revision = %v, want stall power", p)
	}
	// Revising back to the original value must collapse the point.
	r2 := NewRecorder(m, activeState())
	r2.SetState(100, napSt)
	r2.SetState(100, activeState())
	if len(r2.Points()) != 1 {
		t.Errorf("same-instant revert kept %d points, want 1", len(r2.Points()))
	}
}

func TestRecorderMisuseErrors(t *testing.T) {
	t.Run("out of order", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.SetState(100, State{Mode: ModeNap, V: cpu.VHigh}); err != nil {
			t.Fatal(err)
		}
		if err := r.SetState(50, activeState()); !errors.Is(err, ErrOrder) {
			t.Errorf("out-of-order SetState err = %v, want ErrOrder", err)
		}
	})
	t.Run("after finish", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.Finish(100); err != nil {
			t.Fatal(err)
		}
		if err := r.SetState(150, activeState()); !errors.Is(err, ErrClosed) {
			t.Errorf("SetState after Finish err = %v, want ErrClosed", err)
		}
	})
	t.Run("finish before last", func(t *testing.T) {
		r := NewRecorder(DefaultModel(), activeState())
		if err := r.SetState(100, State{Mode: ModeNap, V: cpu.VHigh}); err != nil {
			t.Fatal(err)
		}
		if err := r.Finish(50); !errors.Is(err, ErrOrder) {
			t.Errorf("early Finish err = %v, want ErrOrder", err)
		}
	})
}

func TestRecorderEnergyRangeErrors(t *testing.T) {
	r := NewRecorder(DefaultModel(), activeState())
	r.Finish(100)
	for _, c := range []struct{ from, to sim.Time }{
		{-1, 50}, {0, 101}, {60, 40},
	} {
		if _, err := r.Energy(c.from, c.to); !errors.Is(err, ErrRange) {
			t.Errorf("Energy(%d,%d) err = %v, want ErrRange", c.from, c.to, err)
		}
	}
	if _, err := r.AveragePower(50, 50); !errors.Is(err, ErrRange) {
		t.Error("AveragePower over empty span did not return ErrRange")
	}
}

func TestRecorderAveragePower(t *testing.T) {
	m := DefaultModel()
	r := NewRecorder(m, activeState())
	r.Finish(10 * sim.Second)
	avg, err := r.AveragePower(0, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-m.Power(activeState())) > 1e-9 {
		t.Errorf("average = %v, want constant %v", avg, m.Power(activeState()))
	}
}

// Property: energy over any split point equals the sum of the parts.
func TestRecorderAdditivityProperty(t *testing.T) {
	f := func(changes []uint16, split uint16) bool {
		m := DefaultModel()
		r := NewRecorder(m, activeState())
		now := sim.Time(0)
		st := activeState()
		for i, c := range changes {
			now += sim.Time(c%1000) + 1
			st.Mode = Mode(i % 2)
			st.Step = cpu.Step(i % cpu.NumSteps)
			r.SetState(now, st)
		}
		end := now + 1000
		r.Finish(end)
		mid := sim.Time(split) % (end + 1)
		whole, err1 := r.Energy(0, end)
		a, err2 := r.Energy(0, mid)
		b, err3 := r.Energy(mid, end)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(whole-(a+b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealDVSModelVoltages(t *testing.T) {
	m := IdealDVSModel()
	if len(m.DVSVolts) != cpu.NumSteps {
		t.Fatalf("%d voltages", len(m.DVSVolts))
	}
	if math.Abs(m.DVSVolts[cpu.MinStep]-0.8) > 1e-12 {
		t.Errorf("59MHz voltage = %v, want 0.8", m.DVSVolts[cpu.MinStep])
	}
	if math.Abs(m.DVSVolts[cpu.MaxStep]-1.5) > 1e-12 {
		t.Errorf("206.4MHz voltage = %v, want 1.5", m.DVSVolts[cpu.MaxStep])
	}
	for s := cpu.MinStep + 1; s <= cpu.MaxStep; s++ {
		if m.DVSVolts[s] <= m.DVSVolts[s-1] {
			t.Errorf("voltage not increasing at %v", s)
		}
	}
}

func TestIdealDVSEnergyPerCycleFalls(t *testing.T) {
	// On the fixed-voltage Itsy, active power per Hz is constant; on the
	// DVS core it falls with frequency, so energy per cycle shrinks.
	itsy := DefaultModel()
	dvs := IdealDVSModel()
	perCycle := func(m Model, s cpu.Step) float64 {
		return m.CoreActive(s, cpu.VHigh) / (float64(s.KHz()) * 1000)
	}
	// Itsy: identical per-cycle energy at every step.
	if math.Abs(perCycle(itsy, cpu.MinStep)-perCycle(itsy, cpu.MaxStep)) > 1e-15 {
		t.Error("fixed-voltage per-cycle energy is not constant")
	}
	// DVS: strictly decreasing per-cycle energy at lower steps.
	for s := cpu.MinStep; s < cpu.MaxStep; s++ {
		if perCycle(dvs, s) >= perCycle(dvs, s+1) {
			t.Errorf("DVS per-cycle energy not decreasing at %v", s)
		}
	}
	// At the top step the two models agree (both 1.5 V).
	if math.Abs(perCycle(dvs, cpu.MaxStep)-perCycle(itsy, cpu.MaxStep)) > 1e-15 {
		t.Error("models disagree at the top step")
	}
}

func TestDVSModelIgnoresVoltageEnum(t *testing.T) {
	m := IdealDVSModel()
	hi := m.CoreActive(cpu.Step(5), cpu.VHigh)
	lo := m.CoreActive(cpu.Step(5), cpu.VLow)
	if hi != lo {
		t.Error("DVS model should override the discrete voltage enum")
	}
}

// Property: active power is strictly increasing in clock step for both
// models at fixed voltage.
func TestPowerMonotoneInStepProperty(t *testing.T) {
	for _, m := range []Model{DefaultModel(), IdealDVSModel()} {
		for s := cpu.MinStep; s < cpu.MaxStep; s++ {
			if m.CoreActive(s, cpu.VHigh) >= m.CoreActive(s+1, cpu.VHigh) {
				t.Errorf("power not increasing at %v", s)
			}
		}
	}
}

// segmentLog is a SegmentSink that keeps what it receives.
type segmentLog []struct {
	from, to sim.Time
	w        float64
}

func (s *segmentLog) Segment(from, to sim.Time, w float64) {
	*s = append(*s, struct {
		from, to sim.Time
		w        float64
	}{from, to, w})
}

// TestRecorderStreamMatchesPoints drives recorders through timelines full
// of same-instant revisions and collapses — few power levels, many writes
// per instant — and checks that a streamed recorder hands over exactly the
// segments of the finished timeline, whether it keeps the points or
// discards each segment once sent.
func TestRecorderStreamMatchesPoints(t *testing.T) {
	m := DefaultModel()
	levels := []float64{0.1, 0.4, 0.4, 1.2}
	for trial := 0; trial < 200; trial++ {
		rng := sim.NewRNG(uint64(trial))
		ref := NewRecorder(m, activeState())
		var keptLog, discardLog segmentLog
		kept := NewRecorder(m, activeState())
		kept.Stream(&keptLog, true)
		discard := NewRecorder(m, activeState())
		discard.Stream(&discardLog, false)

		now := sim.Time(0)
		for i := 0; i < 60; i++ {
			if rng.Bool(0.4) {
				now += sim.Time(1 + rng.Int63n(50)) // else revise this instant
			}
			w := levels[rng.Int63n(int64(len(levels)))]
			for _, r := range []*Recorder{ref, kept, discard} {
				if err := r.SetWatts(now, w); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(discard.Points()); n > 3 {
				t.Fatalf("trial %d: discarding recorder holds %d points", trial, n)
			}
		}
		end := now + sim.Time(rng.Int63n(20))
		for _, r := range []*Recorder{ref, kept, discard} {
			if err := r.Finish(end); err != nil {
				t.Fatal(err)
			}
		}

		var want segmentLog
		pts := ref.Points()
		for i, p := range pts {
			to := end
			if i+1 < len(pts) {
				to = pts[i+1].At
			}
			want.Segment(p.At, to, p.Watts)
		}
		for name, got := range map[string]segmentLog{"kept": keptLog, "discarding": discardLog} {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s recorder streamed %d segments, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s segment %d = %+v, want %+v", trial, name, i, got[i], want[i])
				}
			}
		}
		if len(kept.Points()) != len(pts) {
			t.Errorf("trial %d: keeping recorder has %d points, want %d", trial, len(kept.Points()), len(pts))
		}
		last := pts[len(pts)-1]
		if got := discard.Points(); len(got) != 1 || got[0] != last {
			t.Errorf("trial %d: discarding recorder ends holding %+v, want only %+v", trial, got, last)
		}
		if w, err := discard.PowerAt(end); err != nil || w != last.Watts {
			t.Errorf("trial %d: discarding PowerAt(end) = %v, %v", trial, w, err)
		}
		if last.At > 0 {
			if _, err := discard.PowerAt(0); !errors.Is(err, ErrRange) {
				t.Errorf("trial %d: PowerAt before the kept tail err = %v, want ErrRange", trial, err)
			}
		}
	}
}
