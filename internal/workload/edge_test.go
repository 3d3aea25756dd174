package workload

import (
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

func TestEventDrivenIgnoresUnknownEvents(t *testing.T) {
	tr := &trace.Trace{Name: "weird", Events: []trace.Event{
		{At: 100 * sim.Millisecond, Kind: "teleport", Arg: 1},
		{At: 200 * sim.Millisecond, Kind: "scroll", Arg: 10},
	}}
	w, err := NewWeb(tr)
	if err != nil {
		t.Fatal(err)
	}
	runAt(t, w, cpu.MaxStep, sim.Second)
	// Only the scroll produced a deadline; the unknown event was dropped.
	if got := w.Metrics().Count(); got != 1 {
		t.Errorf("recorded %d deadlines, want 1", got)
	}
}

func TestChessIgnoresUnknownEvents(t *testing.T) {
	tr := &trace.Trace{Name: "odd", Events: []trace.Event{
		{At: 100 * sim.Millisecond, Kind: "resign", Arg: 1},
		{At: 300 * sim.Millisecond, Kind: "usermove", Arg: 1},
	}}
	c, err := NewChess(tr)
	if err != nil {
		t.Fatal(err)
	}
	runAt(t, c, cpu.MaxStep, 2*sim.Second)
	if got := c.Metrics().Count(); got != 1 {
		t.Errorf("recorded %d deadlines, want 1", got)
	}
}

func TestEditorIgnoresUnknownEvents(t *testing.T) {
	tr := &trace.Trace{Name: "odd", Events: []trace.Event{
		{At: 100 * sim.Millisecond, Kind: "explode", Arg: 1},
		{At: 300 * sim.Millisecond, Kind: "ui", Arg: 10},
	}}
	e, err := NewTalkingEditor(tr)
	if err != nil {
		t.Fatal(err)
	}
	runAt(t, e, cpu.MaxStep, 2*sim.Second)
	if got := e.Metrics().Count(); got != 1 {
		t.Errorf("recorded %d deadlines, want 1", got)
	}
}

func TestFeedbackIgnoresUnknownEvents(t *testing.T) {
	cfg := DefaultFeedbackConfig()
	cfg.Length = sim.Second
	cfg.Disturbances = &trace.Trace{Name: "odd", Events: []trace.Event{
		{At: 100 * sim.Millisecond, Kind: "meltdown", Arg: 1},
		{At: 300 * sim.Millisecond, Kind: "spike", Arg: 10},
	}}
	f, err := NewFeedback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := recordDeadlines(f)
	runAt(t, f, cpu.MaxStep, 2*sim.Second)
	// Exactly one spike deadline among the loop's own records; the unknown
	// event must contribute nothing.
	spikes := 0
	for _, d := range *ds {
		if d.Stream == "spike" {
			spikes++
		}
	}
	if spikes != 1 {
		t.Errorf("recorded %d spike deadlines, want 1", spikes)
	}
}

func TestFeedbackRejectsInvalidParams(t *testing.T) {
	bad := []func(*FeedbackConfig){
		func(c *FeedbackConfig) { c.Period = 0 },
		func(c *FeedbackConfig) { c.Period = -sim.Millisecond },
		func(c *FeedbackConfig) { c.MinPeriod = 0 },
		func(c *FeedbackConfig) { c.MaxPeriod = c.MinPeriod - 1 },
		func(c *FeedbackConfig) { c.Period = c.MaxPeriod + sim.Millisecond },
		func(c *FeedbackConfig) { c.Period = c.MinPeriod - 1 },
		func(c *FeedbackConfig) { c.Burst = cpu.Burst{} },
		func(c *FeedbackConfig) { c.Jitter = -0.1 },
		func(c *FeedbackConfig) { c.Jitter = 1 },
		func(c *FeedbackConfig) { c.Length = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultFeedbackConfig()
		mutate(&cfg)
		if _, err := NewFeedback(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	// Invalid disturbance traces are rejected like the other workloads'.
	cfg := DefaultFeedbackConfig()
	cfg.Disturbances = &trace.Trace{Name: "", Events: nil}
	if _, err := NewFeedback(cfg); err == nil {
		t.Error("feedback accepted invalid trace")
	}
}

func TestFeedbackShedsRateWhenSlow(t *testing.T) {
	mk := func(step cpu.Step) *Feedback {
		cfg := DefaultFeedbackConfig()
		cfg.Length = 10 * sim.Second
		f, err := NewFeedback(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runAt(t, f, step, 0)
		return f
	}
	fast := mk(cpu.MaxStep)
	slow := mk(cpu.MinStep)
	if fast.FinalPeriod() > DefaultFeedbackConfig().Period {
		t.Errorf("full-speed loop stretched its period to %v", fast.FinalPeriod())
	}
	if slow.FinalPeriod() <= fast.FinalPeriod() {
		t.Errorf("slow loop period %v not longer than fast %v — no self-shedding",
			slow.FinalPeriod(), fast.FinalPeriod())
	}
	// The closed loop trades rate for feasibility: fewer samples at 59 MHz.
	if slow.Metrics().Count() >= fast.Metrics().Count() {
		t.Errorf("slow loop recorded %d deadlines, fast %d — expected fewer when shed",
			slow.Metrics().Count(), fast.Metrics().Count())
	}
}

func TestWorkloadsRejectDoubleInstall(t *testing.T) {
	builders := []func() Workload{
		func() Workload { w, _ := NewWeb(nil); return w },
		func() Workload { c, _ := NewChess(nil); return c },
		func() Workload { e, _ := NewTalkingEditor(nil); return e },
		func() Workload { r, _ := NewRectWave(9, 1, sim.Second); return r },
		func() Workload { f, _ := NewFeedback(DefaultFeedbackConfig()); return f },
	}
	for _, mk := range builders {
		w := mk()
		eng := &sim.Engine{}
		k, _ := kernel.New(eng, kernel.DefaultConfig())
		if err := w.Install(k); err != nil {
			t.Fatalf("%s: first install failed: %v", w.Name(), err)
		}
		if err := w.Install(k); err == nil {
			t.Errorf("%s: double install accepted", w.Name())
		}
	}
}

func TestWorkloadsRejectInvalidTraces(t *testing.T) {
	bad := &trace.Trace{Name: "", Events: nil}
	if _, err := NewChess(bad); err == nil {
		t.Error("chess accepted invalid trace")
	}
	if _, err := NewTalkingEditor(bad); err == nil {
		t.Error("editor accepted invalid trace")
	}
}

func TestMPEGDropModeShedsFramesWhenSlow(t *testing.T) {
	cfg := DefaultMPEGConfig()
	cfg.Length = 10 * sim.Second
	cfg.DropLateFrames = true
	m, err := NewMPEG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := recordDeadlines(m)
	runAt(t, m, cpu.MinStep, 0)
	if m.DroppedFrames() == 0 {
		t.Error("drop-tolerant player dropped nothing at 59MHz")
	}
	// Dropped + rendered ≈ total frames.
	rendered := 0
	for _, d := range *ds {
		if d.Stream == "frame" {
			rendered++
		}
	}
	total := 10 * cfg.FPS
	if got := rendered + m.DroppedFrames(); got < total-2 || got > total {
		t.Errorf("rendered %d + dropped %d = %d, want ≈%d",
			rendered, m.DroppedFrames(), got, total)
	}
}

func TestMPEGDropModeKeepsEverythingWhenFast(t *testing.T) {
	cfg := DefaultMPEGConfig()
	cfg.Length = 10 * sim.Second
	cfg.DropLateFrames = true
	m, _ := NewMPEG(cfg)
	runAt(t, m, cpu.MaxStep, 0)
	if m.DroppedFrames() != 0 {
		t.Errorf("dropped %d frames at full speed", m.DroppedFrames())
	}
}

func TestMPEGDroppedFramesBeforeInstall(t *testing.T) {
	m, _ := NewMPEG(DefaultMPEGConfig())
	if m.DroppedFrames() != 0 {
		t.Error("uninstalled workload reports drops")
	}
}

func TestJavaPollStopsAtLength(t *testing.T) {
	eng := &sim.Engine{}
	k, _ := kernel.New(eng, kernel.DefaultConfig())
	p, _ := k.Spawn(NewJavaPoll(100 * sim.Millisecond))
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != kernel.StateExited {
		t.Errorf("poll process state = %v after its horizon", p.State())
	}
	// ~4 polls of ~1 ms.
	if p.CPUTime() > 10*sim.Millisecond {
		t.Errorf("poll used %v CPU in 100ms window", p.CPUTime())
	}
}
