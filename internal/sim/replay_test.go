package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// plan is one installable item of a generated schedule: a plain event
// (one time) or a replayed stream (times nondecreasing). A plain event
// installs its kids when it fires, with times offset from its own.
type plan struct {
	at     []Time
	stream bool
	kids   []*plan
}

// genSchedule draws a schedule of 1–3 replayed streams mixed with plain
// events, some of them installed from inside firing events. Times come
// from a narrow range so that many events collide on one microsecond.
func genSchedule(r *RNG) []*plan {
	streams := 1 + int(r.Int63n(3))
	var top []*plan
	var gen func(base Time, depth int, stream bool) *plan
	gen = func(base Time, depth int, stream bool) *plan {
		p := &plan{stream: stream}
		if stream {
			t := base + Time(r.Int63n(20))
			for k := 1 + int(r.Int63n(30)); k > 0; k-- {
				p.at = append(p.at, t)
				if r.Bool(0.6) {
					t += Time(r.Int63n(8))
				}
			}
			return p
		}
		p.at = []Time{base + Time(r.Int63n(40))}
		if depth < 2 && r.Bool(0.3) {
			for k := 1 + int(r.Int63n(2)); k > 0; k-- {
				kidStream := streams > 0 && r.Bool(0.3)
				if kidStream {
					streams--
				}
				p.kids = append(p.kids, gen(p.at[0], depth+1, kidStream))
			}
		}
		return p
	}
	for k := 1 + int(r.Int63n(10)); k > 0; k-- {
		top = append(top, gen(0, 0, false))
	}
	// Whatever streams the kids did not claim are installed up front,
	// each at a random position among the plain events.
	for ; streams > 0; streams-- {
		i := int(r.Int63n(int64(len(top) + 1)))
		top = slices.Insert(top, i, gen(0, 0, true))
	}
	return top
}

// install schedules p on e, either as one Replay cursor or, for the
// reference engine, as one At call per event. Every firing appends its
// label to log.
func install(t *testing.T, e *Engine, p *plan, label string, log *[]string, replay bool) {
	if p.stream {
		fire := func(i int, now Time) {
			*log = append(*log, fmt.Sprintf("%s#%d@%v", label, i, now))
		}
		if replay {
			if err := e.Replay(len(p.at), func(i int) Time { return p.at[i] }, fire); err != nil {
				t.Fatal(err)
			}
			return
		}
		for i, at := range p.at {
			if _, err := e.At(at, func(now Time) { fire(i, now) }); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if _, err := e.At(p.at[0], func(now Time) {
		*log = append(*log, fmt.Sprintf("%s@%v", label, now))
		for k, kid := range p.kids {
			install(t, e, kid, fmt.Sprintf("%s.%d", label, k), log, replay)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// runSchedule installs top on a fresh engine, runs it up to mid (where
// the run pauses and resumes) and then to completion, and returns the
// firing log, the fired count and the run's error.
func runSchedule(t *testing.T, top []*plan, mid Time, maxEvents uint64, replay bool) ([]string, uint64, error) {
	var e Engine
	e.MaxEvents = maxEvents
	var log []string
	for k, p := range top {
		install(t, &e, p, fmt.Sprint(k), &log, replay)
	}
	if err := e.RunUntil(mid); err != nil {
		return log, e.Fired(), err
	}
	err := e.Run()
	return log, e.Fired(), err
}

// Differential: replaying a stream fires events in exactly the (time,
// sequence) order, and the same number of them, as installing every
// event up front with At.
func TestEngineReplayMatchesUpFrontAt(t *testing.T) {
	for seed := uint64(1); seed <= 500; seed++ {
		r := NewRNG(seed)
		top := genSchedule(r)
		mid := Time(r.Int63n(120))
		want, wantFired, err := runSchedule(t, top, mid, 0, false)
		if err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, err)
		}
		got, gotFired, err := runSchedule(t, top, mid, 0, true)
		if err != nil {
			t.Fatalf("seed %d: replay run: %v", seed, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order differs\nreplay:  %v\nup front: %v", seed, got, want)
		}
		if gotFired != wantFired {
			t.Fatalf("seed %d: Fired() = %d, up front %d", seed, gotFired, wantFired)
		}
	}
}

// The event cap trips at the same event whether streams are replayed or
// installed up front.
func TestEngineReplayEventCapTripsAtSameEvent(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := NewRNG(seed)
		top := genSchedule(r)
		full, total, err := runSchedule(t, top, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if total < 2 {
			continue
		}
		limit := 1 + uint64(r.Int63n(int64(total-1)))
		want, wantFired, wantErr := runSchedule(t, top, 0, limit, false)
		got, gotFired, gotErr := runSchedule(t, top, 0, limit, true)
		if !errors.Is(wantErr, ErrEventCap) || !errors.Is(gotErr, ErrEventCap) {
			t.Fatalf("seed %d: cap %d of %d: errors %v / %v, want ErrEventCap", seed, limit, total, gotErr, wantErr)
		}
		if gotFired != limit || wantFired != limit || !slices.Equal(got, want) || !slices.Equal(got, full[:limit]) {
			t.Fatalf("seed %d: cap %d: replay fired %d %v, up front %d %v", seed, limit, gotFired, got, wantFired, want)
		}
	}
}

// A replayed stream occupies one queue slot however long it is.
func TestEngineReplayQueuesOneEventPerStream(t *testing.T) {
	var e Engine
	for k, n := range []int{1, 10, 5000} {
		if err := e.Replay(n, func(i int) Time { return Time(i) }, func(int, Time) {}); err != nil {
			t.Fatal(err)
		}
		if got := e.Pending(); got != k+1 {
			t.Fatalf("after a %d-event stream Pending() = %d, want %d", n, got, k+1)
		}
	}
	if err := e.Replay(0, func(int) Time { return 0 }, func(int, Time) {}); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 3 {
		t.Fatalf("empty stream changed Pending() to %d", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 5011 || e.Pending() != 0 {
		t.Fatalf("Fired() = %d, Pending() = %d after the run, want 5011 and 0", e.Fired(), e.Pending())
	}
}

func TestEngineReplayRejectsPastAndDecreasingTimes(t *testing.T) {
	var e Engine
	noop := func(int, Time) {}
	e.RunUntil(50)
	if err := e.Replay(3, func(i int) Time { return Time(40 + 10*i) }, noop); !errors.Is(err, ErrPast) {
		t.Fatalf("Replay starting in the past = %v, want ErrPast", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("refused stream left %d events queued", e.Pending())
	}
	if err := e.Replay(2, nil, noop); err == nil {
		t.Fatal("Replay with nil times succeeded")
	}
	if err := e.Replay(2, func(int) Time { return 60 }, nil); err == nil {
		t.Fatal("Replay with nil fire succeeded")
	}
	if err := e.Replay(-1, func(int) Time { return 60 }, noop); err == nil {
		t.Fatal("Replay of -1 events succeeded")
	}

	times := []Time{60, 70, 65, 80}
	var fired []Time
	if err := e.Replay(len(times), func(i int) Time { return times[i] }, func(_ int, now Time) {
		fired = append(fired, now)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); !errors.Is(err, ErrPast) {
		t.Fatalf("Run over a decreasing stream = %v, want ErrPast", err)
	}
	if !slices.Equal(fired, []Time{60, 70}) {
		t.Fatalf("fired %v before the decrease, want [60 70]", fired)
	}
}

// Halting inside a replayed event leaves the rest of the stream queued;
// RunUntil continues the series.
func TestEngineReplayResumesAfterHalt(t *testing.T) {
	var e Engine
	count := 0
	if err := e.Replay(10, func(i int) Time { return Time(10 * (i + 1)) }, func(int, Time) {
		count++
		if count == 3 {
			e.Halt()
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	halted := count
	if halted != 3 {
		t.Fatalf("halt let %d events fire", halted)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after halt, want the stream's next event", e.Pending())
	}
	e.RunUntil(100)
	if count != 10 {
		t.Errorf("resumed run fired %d events in all, want 10", count)
	}
}
