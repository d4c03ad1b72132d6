package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order %v, want FIFO", got)
		}
	}
}

func TestNowDuringEvent(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(77, func() { at = e.Now() })
	e.Run()
	if at != 77 {
		t.Fatalf("Now() inside event = %v, want 77", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil func did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestAfter(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.Schedule(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After(50) from t=100 fired at %v, want 150", fired)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.Schedule(10, func() { ran = true })
	if !h.Pending() {
		t.Fatal("handle not pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first cancel returned false")
	}
	if h.Cancel() {
		t.Fatal("second cancel returned true")
	}
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if h.Pending() {
		t.Fatal("canceled handle still pending")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(10, func() { count++ })
	e.Schedule(20, func() { count++ })
	e.Schedule(30, func() { count++ })
	e.RunUntil(25)
	if count != 2 {
		t.Fatalf("ran %d events by t=25, want 2", count)
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25), want 25", e.Now())
	}
	e.RunUntil(30)
	if count != 3 {
		t.Fatalf("ran %d events by t=30, want 3", count)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(25, func() { ran = true })
	e.RunUntil(25)
	if !ran {
		t.Fatal("event at horizon not run by RunUntil")
	}
}

// TestRunBeforeExclusive pins the "op at t" horizon: events due before
// t run, events due at t wait, and the clock stands at t.
func TestRunBeforeExclusive(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{10, 25, 25, 30} {
		e.Schedule(at, func() { ran = append(ran, e.Now()) })
	}
	e.RunBefore(25)
	if len(ran) != 1 || e.Now() != 25 {
		t.Fatalf("RunBefore(25) ran events at %v, clock %v; want [10ns] and 25ns", ran, e.Now())
	}
	e.RunUntil(25)
	if len(ran) != 3 {
		t.Fatalf("events at the horizon lost: ran %v", ran)
	}
}

// TestRunBeforeSkipsCanceledHead: a canceled event at the head of the
// queue must not let a later event run past the horizon.
func TestRunBeforeSkipsCanceledHead(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.Schedule(5, func() {})
	e.Schedule(10, func() { ran = true })
	h.Cancel()
	e.RunBefore(7)
	if ran || e.Now() != 7 {
		t.Fatalf("ran=%v now=%v; want the event at 10ns pending and the clock at 7ns", ran, e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(100)
	e.RunFor(50)
	if e.Now() != 150 {
		t.Fatalf("clock at %v after RunFor(100)+RunFor(50), want 150", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(10, func() { count++; e.Stop() })
	e.Schedule(20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop() did not halt run: ran %d events", count)
	}
	// A later Run resumes.
	e.Run()
	if count != 2 {
		t.Fatalf("resumed run processed %d total, want 2", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var fires []Time
	tk := e.Every(10, func() { fires = append(fires, e.Now()) })
	e.RunUntil(35)
	tk.Stop()
	e.RunUntil(100)
	want := []Time{10, 20, 30}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", fires, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.Every(5, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticker fired %d times after self-stop at 3, want 3", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	e.Every(0, func() {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(10, func() {
		order = append(order, "a")
		e.Schedule(15, func() { order = append(order, "b") })
	})
	e.Schedule(20, func() { order = append(order, "c") })
	e.Run()
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		for i := 0; i < 100; i++ {
			e.After(Duration(e.Rand().Intn(1000)), func() {
				out = append(out, int64(e.Now()), e.Rand().Int63n(1<<30))
			})
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDurationConversions(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d ns, want 1000", Microsecond)
	}
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if (5 * Microsecond).Micros() != 5.0 {
		t.Fatalf("Micros() = %v, want 5", (5 * Microsecond).Micros())
	}
	if Time(1500).Sub(Time(500)) != 1000 {
		t.Fatalf("Sub wrong")
	}
	if Time(100).Add(50) != 150 {
		t.Fatalf("Add wrong")
	}
}

// Property: for any set of scheduled times, execution order is the
// sorted order of those times.
func TestPropertyExecutionIsSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var got []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func() { got = append(got, at) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset runs exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		e := NewEngine(3)
		ran := make([]bool, count)
		handles := make([]EventHandle, count)
		for i := 0; i < count; i++ {
			i := i
			handles[i] = e.Schedule(Time(i*10), func() { ran[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				handles[i].Cancel()
			}
		}
		e.Run()
		for i := 0; i < count; i++ {
			canceled := mask&(1<<uint(i)) != 0
			if ran[i] == canceled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(rng.Intn(1000)+1), func() {})
		if e.Pending() > 1024 {
			e.RunFor(500)
		}
	}
	e.Run()
}

func TestRescheduleMovesEvent(t *testing.T) {
	e := NewEngine(1)
	var got []string
	h := e.Schedule(100, func() { got = append(got, "old") })
	e.Schedule(150, func() { got = append(got, "mid") })
	h = e.Reschedule(h, 200, func() { got = append(got, "new") })
	e.Run()
	if len(got) != 2 || got[0] != "mid" || got[1] != "new" {
		t.Fatalf("execution order %v, want [mid new]", got)
	}
	if h.Pending() {
		t.Fatal("handle still pending after run")
	}
}

func TestRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Schedule(100, func() { got = append(got, "anchor") })
	h := e.Schedule(300, func() { got = append(got, "old") })
	e.Reschedule(h, 50, func() { got = append(got, "early") })
	e.Run()
	if len(got) != 2 || got[0] != "early" || got[1] != "anchor" {
		t.Fatalf("execution order %v, want [early anchor]", got)
	}
}

// Rescheduling must be indistinguishable from Cancel+Schedule: same
// seq consumption, same same-instant ordering, same pending fingerprint.
// The fabric's determinism contract (snapshot hashes cover Seq and
// PendingEvents) depends on this equivalence.
func TestRescheduleSeqParityWithCancelSchedule(t *testing.T) {
	build := func(reschedule bool) (*Engine, *[]int) {
		e := NewEngine(1)
		got := &[]int{}
		h := e.Schedule(100, func() { *got = append(*got, 0) })
		e.Schedule(200, func() { *got = append(*got, 1) })
		if reschedule {
			e.Reschedule(h, 200, func() { *got = append(*got, 2) })
		} else {
			h.Cancel()
			e.Schedule(200, func() { *got = append(*got, 2) })
		}
		e.Schedule(200, func() { *got = append(*got, 3) })
		return e, got
	}
	er, gr := build(true)
	ec, gc := build(false)
	if er.Seq() != ec.Seq() {
		t.Fatalf("seq after reschedule %d != after cancel+schedule %d", er.Seq(), ec.Seq())
	}
	// The (At, Seq) fingerprint of live pending events — what snapshot
	// hashes cover — must be identical between the two idioms.
	pr, pc := er.PendingEvents(), ec.PendingEvents()
	if len(pr) != len(pc) {
		t.Fatalf("pending fingerprints differ in length: %d vs %d", len(pr), len(pc))
	}
	for i := range pr {
		if pr[i] != pc[i] {
			t.Fatalf("pending event %d: reschedule %+v vs cancel+schedule %+v", i, pr[i], pc[i])
		}
	}
	// Same-instant execution order parity.
	er.Run()
	ec.Run()
	if len(*gr) != len(*gc) {
		t.Fatalf("ran %d vs %d events", len(*gr), len(*gc))
	}
	for i := range *gr {
		if (*gr)[i] != (*gc)[i] {
			t.Fatalf("same-instant order diverged: %v vs %v", *gr, *gc)
		}
	}
}

func TestRescheduleExpiredFallsBackToSchedule(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	h := e.Schedule(10, func() { ran++ })
	e.RunUntil(20) // h has fired; its handle is spent
	h2 := e.Reschedule(h, 30, func() { ran += 10 })
	if !h2.Pending() {
		t.Fatal("fallback schedule not pending")
	}
	e.Run()
	if ran != 11 {
		t.Fatalf("ran = %d, want 11 (original once, fallback once)", ran)
	}
}

func TestRescheduleCanceledFallsBackToSchedule(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	h := e.Schedule(10, func() { ran++ })
	h.Cancel()
	e.Reschedule(h, 30, func() { ran += 10 })
	e.Run()
	if ran != 10 {
		t.Fatalf("ran = %d, want 10 (canceled never fires, fallback does)", ran)
	}
}

func TestRescheduleZeroHandle(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.Reschedule(EventHandle{}, 5, func() { ran = true })
	if !h.Pending() {
		t.Fatal("zero-handle reschedule not pending")
	}
	e.Run()
	if !ran {
		t.Fatal("zero-handle reschedule never ran")
	}
}

func TestReschedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(50, func() {})
	e.RunUntil(50)
	h := e.Schedule(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling into the past did not panic")
		}
	}()
	e.Reschedule(h, 10, func() {})
}

func TestRescheduleNilFuncPanics(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling nil func did not panic")
		}
	}()
	e.Reschedule(h, 200, nil)
}
