package fault

import (
	"math"
	"testing"

	"clocksched/internal/sim"
)

func TestNilAndZeroPlansAreInert(t *testing.T) {
	for _, p := range []*Plan{nil, {}} {
		in, err := NewInjector(p, 42, 0)
		if err != nil {
			t.Fatal(err)
		}
		if in != nil {
			t.Fatalf("NewInjector(%v) = %v, want nil injector", p, in)
		}
	}
	// Every hook must be nil-safe and inject nothing.
	var in *Injector
	if in.ClockChangeFails() || in.DropSample() || in.DropTraceEvent() {
		t.Error("nil injector injected a fault")
	}
	if d := in.ExtraSettle(); d != 0 {
		t.Errorf("nil ExtraSettle = %v", d)
	}
	if d := in.TimerJitter(); d != 0 {
		t.Errorf("nil TimerJitter = %v", d)
	}
	if d := in.TraceDelay(); d != 0 {
		t.Errorf("nil TraceDelay = %v", d)
	}
	if w, ok := in.GlitchWatts(); ok || w != 0 {
		t.Errorf("nil GlitchWatts = %v, %v", w, ok)
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Errorf("nil Counts = %+v", c)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{ClockChangeFailProb: -0.1},
		{ClockChangeFailProb: 1.5},
		{SampleDropProb: math.NaN()},
		{SettleStallProb: 0.5, SettleStallMax: -sim.Millisecond},
		{TimerJitterProb: 0.5, TimerJitterMax: -1},
		{TraceDelayProb: 0.5, TraceDelayMax: -1},
		{SampleGlitchProb: 0.5, SampleGlitchWatts: -1},
		{SampleGlitchProb: 0.5, SampleGlitchWatts: math.NaN()},
	}
	for i, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
		if _, err := NewInjector(&p, 1, 0); err == nil {
			t.Errorf("NewInjector accepted bad plan %d", i)
		}
	}
	good := Plan{ClockChangeFailProb: 0.01, SettleStallProb: 1, TimerJitterProb: 0.3}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

// drive exercises every hook a fixed number of times and returns the tally.
func drive(t *testing.T, in *Injector, n int) (Counts, []sim.Duration) {
	t.Helper()
	var durs []sim.Duration
	for i := 0; i < n; i++ {
		in.ClockChangeFails()
		durs = append(durs, in.ExtraSettle(), in.TimerJitter(), in.TraceDelay())
		in.DropSample()
		if w, ok := in.GlitchWatts(); ok {
			durs = append(durs, sim.Duration(math.Float64bits(w)&0xffff))
		}
		in.DropTraceEvent()
	}
	return in.Counts(), durs
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := &Plan{
		ClockChangeFailProb: 0.1,
		SettleStallProb:     0.2,
		SampleDropProb:      0.1,
		SampleGlitchProb:    0.1,
		TimerJitterProb:     0.3,
		TraceDropProb:       0.2,
		TraceDelayProb:      0.2,
	}
	mk := func(seed uint64) *Injector {
		in, err := NewInjector(plan, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if in == nil {
			t.Fatal("enabled plan produced nil injector")
		}
		return in
	}
	c1, d1 := drive(t, mk(7), 500)
	c2, d2 := drive(t, mk(7), 500)
	if c1 != c2 {
		t.Fatalf("same seed, different counts:\n%+v\n%+v", c1, c2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("same seed, different draw %d: %v vs %v", i, d1[i], d2[i])
		}
	}
	if c1.Total() == 0 {
		t.Fatal("plan with every rate set injected nothing in 500 rounds")
	}
	c3, _ := drive(t, mk(8), 500)
	if c1 == c3 {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestInjectorRespectsBounds(t *testing.T) {
	plan := &Plan{
		SettleStallProb: 1,
		SettleStallMax:  700 * sim.Microsecond,
		TimerJitterProb: 1,
		TimerJitterMax:  300 * sim.Microsecond,
		TraceDelayProb:  1,
		TraceDelayMax:   sim.Millisecond,
	}
	in, err := NewInjector(plan, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if d := in.ExtraSettle(); d <= 0 || d > plan.SettleStallMax {
			t.Fatalf("ExtraSettle = %v outside (0, %v]", d, plan.SettleStallMax)
		}
		if d := in.TimerJitter(); d <= 0 || d > plan.TimerJitterMax {
			t.Fatalf("TimerJitter = %v outside (0, %v]", d, plan.TimerJitterMax)
		}
		if d := in.TraceDelay(); d <= 0 || d > plan.TraceDelayMax {
			t.Fatalf("TraceDelay = %v outside (0, %v]", d, plan.TraceDelayMax)
		}
	}
	c := in.Counts()
	if c.SettleStalls != 1000 || c.TimerJitters != 1000 || c.TraceDelays != 1000 {
		t.Errorf("probability-1 faults missed opportunities: %+v", c)
	}
}

func TestGlitchAmplitudeBounded(t *testing.T) {
	plan := &Plan{SampleGlitchProb: 1, SampleGlitchWatts: 0.25}
	in, err := NewInjector(plan, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w, ok := in.GlitchWatts()
		if !ok {
			t.Fatal("probability-1 glitch missed")
		}
		if w < -0.25 || w > 0.25 {
			t.Fatalf("glitch %v outside ±0.25 W", w)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	in, err := NewInjector(&Plan{SettleStallProb: 0.5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := in.Plan()
	if p.SettleStallMax != DefaultSettleStallMax ||
		p.TimerJitterMax != DefaultTimerJitterMax ||
		p.TraceDelayMax != DefaultTraceDelayMax ||
		p.SampleGlitchWatts != DefaultGlitchWatts {
		t.Errorf("defaults not filled: %+v", p)
	}
}

// TestAcquisitionFaultsIgnoreKernelDraws: the DAQ folds its readings while
// the run is still making kernel-side fault draws, so the instrument's
// drop/glitch schedule must not depend on those draws. A plan that adds
// kernel faults, with their draws interleaved between readings, sees the
// same acquisition faults as the sample-only plan.
func TestAcquisitionFaultsIgnoreKernelDraws(t *testing.T) {
	daqOnly := &Plan{SampleDropProb: 0.2, SampleGlitchProb: 0.2}
	both := &Plan{SampleDropProb: 0.2, SampleGlitchProb: 0.2,
		ClockChangeFailProb: 0.3, TimerJitterProb: 0.3, TraceDropProb: 0.3}
	a, err := NewInjector(daqOnly, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(both, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		b.ClockChangeFails()
		b.TimerJitter()
		if i%3 == 0 {
			b.DropTraceEvent()
		}
		if da, db := a.DropSample(), b.DropSample(); da != db {
			t.Fatalf("reading %d: drop %v vs %v", i, da, db)
		}
		ga, oka := a.GlitchWatts()
		gb, okb := b.GlitchWatts()
		if ga != gb || oka != okb {
			t.Fatalf("reading %d: glitch %v/%v vs %v/%v", i, ga, oka, gb, okb)
		}
	}
	ca, cb := a.Counts(), b.Counts()
	if ca.SamplesDropped == 0 || ca.SamplesGlitched == 0 || cb.ClockChangeFails == 0 {
		t.Fatalf("vacuous: %+v / %+v", ca, cb)
	}
}

// TestAcquisitionFaultsIndependentOfKernelFaults: the acquisition stream is
// not a copy of the kernel-side one, so equal probabilities on both sides
// must not give the i-th reading the i-th clock change's outcome.
func TestAcquisitionFaultsIndependentOfKernelFaults(t *testing.T) {
	in, err := NewInjector(&Plan{SampleDropProb: 0.5, ClockChangeFailProb: 0.5}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if in.DropSample() == in.ClockChangeFails() {
			same++
		}
	}
	if same == n {
		t.Error("sample drops replay the clock-change failure draws")
	}
}
