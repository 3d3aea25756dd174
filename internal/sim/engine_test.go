package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEngineZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step() on empty queue reported an event")
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		if _, err := e.At(at, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 30 {
		t.Errorf("final Now() = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.At(100, func(Time) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEngineRejectsPast(t *testing.T) {
	var e Engine
	if _, err := e.At(50, func(Time) {}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.At(10, func(Time) {}); !errors.Is(err, ErrPast) {
		t.Fatalf("At(past) error = %v, want ErrPast", err)
	}
}

func TestEngineRejectsNilEvent(t *testing.T) {
	var e Engine
	if _, err := e.At(0, nil); err == nil {
		t.Fatal("At(nil) succeeded, want error")
	}
}

func TestEngineAfterClampsNegative(t *testing.T) {
	var e Engine
	fired := false
	if _, err := e.After(-5, func(now Time) {
		if now != 0 {
			t.Errorf("fired at %v, want 0", now)
		}
		fired = true
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	h, err := e.At(10, func(Time) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel of pending event reported false")
	}
	if e.Cancel(h) {
		t.Fatal("double Cancel reported true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	var e Engine
	h, err := e.At(10, func(Time) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Cancel(h) {
		t.Fatal("Cancel after fire reported true")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	var e Engine
	var got []Time
	handles := make([]Handle, 0, 5)
	for _, at := range []Time{1, 2, 3, 4, 5} {
		h, err := e.At(at, func(now Time) { got = append(got, now) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	e.Cancel(handles[2]) // remove the event at t=3
	e.Run()
	want := []Time{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for _, at := range []Time{10, 20, 30, 40} {
		if _, err := e.At(at, func(Time) { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(25)
	if count != 2 {
		t.Errorf("RunUntil(25) fired %d events, want 2", count)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if count != 4 {
		t.Errorf("after second RunUntil fired %d, want 4", count)
	}
}

func TestEngineHalt(t *testing.T) {
	var e Engine
	count := 0
	for i := Time(1); i <= 10; i++ {
		if _, err := e.At(i, func(Time) {
			count++
			if count == 3 {
				e.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if count != 3 {
		t.Errorf("Halt let %d events fire, want 3", count)
	}
}

func TestEngineFailHaltsAndKeepsFirstError(t *testing.T) {
	var e Engine
	first := errors.New("first failure")
	count := 0
	for i := Time(1); i <= 10; i++ {
		if _, err := e.At(i, func(Time) {
			count++
			if count == 3 {
				e.Fail(first)
				e.Fail(errors.New("second failure"))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); !errors.Is(err, first) {
		t.Fatalf("Run() = %v, want the first failure", err)
	}
	if count != 3 {
		t.Errorf("Fail let %d events fire, want 3", count)
	}
	if !errors.Is(e.Err(), first) {
		t.Errorf("Err() = %v, want the first failure", e.Err())
	}
	// A failed engine stays failed: stepping fires nothing further.
	if e.Step() {
		t.Error("Step() on failed engine fired an event")
	}
}

func TestEngineEventCap(t *testing.T) {
	var e Engine
	e.MaxEvents = 50
	// A self-re-arming zero-delay event: without the cap this never drains.
	var loop Event
	loop = func(now Time) {
		if _, err := e.At(now, loop); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.At(0, loop); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); !errors.Is(err, ErrEventCap) {
		t.Fatalf("Run() = %v, want ErrEventCap", err)
	}
	if e.Fired() != 50 {
		t.Errorf("Fired = %d, want exactly the cap", e.Fired())
	}
}

func TestEngineRunUntilReturnsFailure(t *testing.T) {
	var e Engine
	boom := errors.New("boom")
	if _, err := e.At(10, func(Time) { e.Fail(boom) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(100); !errors.Is(err, boom) {
		t.Fatalf("RunUntil = %v, want boom", err)
	}
	// The clock stays at the failing instant rather than jumping to end.
	if e.Now() != 10 {
		t.Errorf("Now() = %v after failure, want 10", e.Now())
	}
}

func TestEngineScheduleFromInsideEvent(t *testing.T) {
	var e Engine
	var got []Time
	if _, err := e.At(10, func(now Time) {
		got = append(got, now)
		if _, err := e.After(5, func(now Time) { got = append(got, now) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

// Property: any batch of events fires in nondecreasing time order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		var e Engine
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			if _, err := e.At(at, func(now Time) { fired = append(fired, now) }); err != nil {
				return false
			}
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0µs"},
		{999, "999µs"},
		{Millisecond, "1ms"},
		{1500, "1.5ms"},
		{Second, "1s"},
		{2*Second + 500*Millisecond, "2.5s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500000 {
		t.Errorf("FromSeconds(1.5) = %d, want 1500000", int64(got))
	}
	if got := FromSeconds(-1.5); got != -1500000 {
		t.Errorf("FromSeconds(-1.5) = %d, want -1500000", int64(got))
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds(0) = %d, want 0", int64(got))
	}
}

func TestTimeConversions(t *testing.T) {
	tm := 2500 * Millisecond
	if got := tm.Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := tm.Millis(); got != 2500 {
		t.Errorf("Millis() = %v, want 2500", got)
	}
	if got := tm.Std().Milliseconds(); got != 2500 {
		t.Errorf("Std() = %v, want 2.5s", tm.Std())
	}
}

func TestEngineFiredCounter(t *testing.T) {
	var e Engine
	for i := Time(1); i <= 5; i++ {
		if _, err := e.At(i, func(Time) {}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Fired() != 0 {
		t.Errorf("Fired = %d before run", e.Fired())
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", e.Fired())
	}
}
