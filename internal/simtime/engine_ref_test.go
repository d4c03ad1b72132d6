package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refEngine is the engine before events were recycled: container/heap
// over a fresh *event per schedule, handles that hold the event itself,
// and a Ticker that arms a new closure per tick. It is the reference
// TestEngineMatchesReference holds Engine to.
type refEngine struct {
	now       Time
	seq       uint64
	queue     refHeap
	stopped   bool
	processed uint64
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int
}

type refHandle struct{ ev *refEvent }

func (h refHandle) Cancel() bool {
	if h.ev == nil || h.ev.canceled || h.ev.index == -1 {
		return false
	}
	h.ev.canceled = true
	return true
}

func (h refHandle) Pending() bool {
	return h.ev != nil && !h.ev.canceled && h.ev.index != -1
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func (e *refEngine) Schedule(at Time, fn func()) refHandle {
	if at < e.now {
		panic(fmt.Sprintf("ref: schedule at %v before now %v", at, e.now))
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return refHandle{ev}
}

func (e *refEngine) Reschedule(h refHandle, at Time, fn func()) refHandle {
	ev := h.ev
	if ev == nil || ev.canceled || ev.index == -1 {
		return e.Schedule(at, fn)
	}
	ev.at = at
	ev.fn = fn
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.queue, ev.index)
	return h
}

func (e *refEngine) After(d Duration, fn func()) refHandle { return e.Schedule(e.now.Add(d), fn) }

type refTicker struct {
	engine  *refEngine
	period  Duration
	fn      func()
	handle  refHandle
	stopped bool
}

func (e *refEngine) Every(period Duration, fn func()) *refTicker {
	t := &refTicker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.handle = t.engine.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.processed++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

func (e *refEngine) RunBefore(t Time) {
	e.stopped = false
	for !e.stopped {
		for len(e.queue) > 0 && e.queue[0].canceled {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 || e.queue[0].at >= t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

func (e *refEngine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(e.queue))
	for _, ev := range e.queue {
		if !ev.canceled {
			out = append(out, PendingEvent{At: ev.at, Seq: ev.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// diffEngine adapts an engine to the differential driver. Handles and
// tickers are kept by index in the order they were made, so both sides
// address the same logical event by the same number — including handles
// whose event has long since run.
type diffEngine interface {
	now() Time
	fingerprint() engineFingerprint
	schedule(at Time, fn func())
	after(d Duration, fn func())
	reschedule(h int, at Time, fn func())
	cancel(h int) bool
	pending(h int) bool
	every(period Duration, fn func())
	stopTicker(i int)
	step() bool
	runUntil(t Time)
	runBefore(t Time)
	run()
	stop()
	handles() int
}

// engineFingerprint is what the two engines must agree on after every
// operation.
type engineFingerprint struct {
	Now       Time
	Processed uint64
	Seq       uint64
	Pending   int
	Events    []PendingEvent
}

type realSide struct {
	e  *Engine
	hs []EventHandle
	ts []*Ticker
	// stale counts handle operations on a recycled slot.
	stale int
}

func (s *realSide) handle(h int) EventHandle {
	if s.hs[h].ev.gen != s.hs[h].gen {
		s.stale++
	}
	return s.hs[h]
}

func (s *realSide) now() Time { return s.e.Now() }
func (s *realSide) fingerprint() engineFingerprint {
	return engineFingerprint{s.e.Now(), s.e.Processed, s.e.Seq(), s.e.Pending(), s.e.PendingEvents()}
}
func (s *realSide) schedule(at Time, fn func()) { s.hs = append(s.hs, s.e.Schedule(at, fn)) }
func (s *realSide) after(d Duration, fn func()) { s.hs = append(s.hs, s.e.After(d, fn)) }
func (s *realSide) reschedule(h int, at Time, fn func()) {
	s.hs = append(s.hs, s.e.Reschedule(s.handle(h), at, fn))
}
func (s *realSide) cancel(h int) bool                { return s.handle(h).Cancel() }
func (s *realSide) pending(h int) bool               { return s.handle(h).Pending() }
func (s *realSide) every(period Duration, fn func()) { s.ts = append(s.ts, s.e.Every(period, fn)) }
func (s *realSide) stopTicker(i int)                 { s.ts[i].Stop() }
func (s *realSide) step() bool                       { return s.e.Step() }
func (s *realSide) runUntil(t Time)                  { s.e.RunUntil(t) }
func (s *realSide) runBefore(t Time)                 { s.e.RunBefore(t) }
func (s *realSide) run()                             { s.e.Run() }
func (s *realSide) stop()                            { s.e.Stop() }
func (s *realSide) handles() int                     { return len(s.hs) }

type refSide struct {
	e  *refEngine
	hs []refHandle
	ts []*refTicker
}

func (s *refSide) now() Time { return s.e.now }
func (s *refSide) fingerprint() engineFingerprint {
	return engineFingerprint{s.e.now, s.e.processed, s.e.seq, len(s.e.queue), s.e.PendingEvents()}
}
func (s *refSide) schedule(at Time, fn func()) { s.hs = append(s.hs, s.e.Schedule(at, fn)) }
func (s *refSide) after(d Duration, fn func()) { s.hs = append(s.hs, s.e.After(d, fn)) }
func (s *refSide) reschedule(h int, at Time, fn func()) {
	s.hs = append(s.hs, s.e.Reschedule(s.hs[h], at, fn))
}
func (s *refSide) cancel(h int) bool                { return s.hs[h].Cancel() }
func (s *refSide) pending(h int) bool               { return s.hs[h].Pending() }
func (s *refSide) every(period Duration, fn func()) { s.ts = append(s.ts, s.e.Every(period, fn)) }
func (s *refSide) stopTicker(i int)                 { s.ts[i].Stop() }
func (s *refSide) step() bool                       { return s.e.Step() }
func (s *refSide) runUntil(t Time)                  { s.e.RunUntil(t) }
func (s *refSide) runBefore(t Time)                 { s.e.RunBefore(t) }
func (s *refSide) run()                             { s.e.Run() }
func (s *refSide) stop()                            { s.e.Stop() }
func (s *refSide) handles() int                     { return len(s.hs) }

// diffDriver applies a seeded operation stream to one engine and logs
// what it observed: each callback's id and virtual time, and the result
// of every handle query. Both sides of a comparison get identically
// seeded drivers, so as long as the engines agree they draw the same
// operations.
type diffDriver struct {
	e      diffEngine
	rng    *rand.Rand
	log    []int64
	nextID int64
	// live marks the tickers not yet stopped; nesting bounds callbacks
	// that operate on the engine to one level.
	live    []bool
	nesting int
}

func (d *diffDriver) note(vs ...int64) { d.log = append(d.log, vs...) }

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// callback returns a fresh event callback that logs its id and, one
// time in three, operates on the engine from inside the event.
func (d *diffDriver) callback() func() {
	id := d.nextID
	d.nextID++
	return func() {
		d.note(id, int64(d.e.now()))
		if d.nesting == 0 && d.rng.Intn(3) == 0 {
			d.nesting++
			d.op(true)
			d.nesting--
		}
	}
}

// tickerCallback logs the tick and may stop its own ticker or operate
// on the engine.
func (d *diffDriver) tickerCallback(i int) func() {
	return func() {
		d.note(-int64(i)-1, int64(d.e.now()))
		switch r := d.rng.Intn(12); {
		case r == 0:
			d.e.stopTicker(i)
			d.live[i] = false
		case r < 4 && d.nesting == 0:
			d.nesting++
			d.op(true)
			d.nesting--
		}
	}
}

func (d *diffDriver) liveTickers() int {
	n := 0
	for _, l := range d.live {
		if l {
			n++
		}
	}
	return n
}

// op applies one operation. Nested operations (from inside a running
// event) never drive the engine's run loop, but may stop it.
func (d *diffDriver) op(nested bool) {
	e, rng := d.e, d.rng
	handle := func() int { return rng.Intn(e.handles()) }
	switch k := rng.Intn(13); {
	case k < 3:
		e.schedule(e.now()+Time(rng.Intn(1000)), d.callback())
	case k == 3:
		e.after(Duration(rng.Intn(1000)), d.callback())
	case k == 4:
		if e.handles() > 0 {
			h := handle()
			e.reschedule(h, e.now()+Time(rng.Intn(1000)), d.callback())
		}
	case k == 5:
		if e.handles() > 0 {
			d.note(boolVal(e.cancel(handle())))
		}
	case k == 6:
		if e.handles() > 0 {
			d.note(boolVal(e.pending(handle())))
		}
	case k == 7:
		if d.liveTickers() < 4 {
			d.live = append(d.live, true)
			e.every(Duration(50+rng.Intn(400)), d.tickerCallback(len(d.live)-1))
		} else if i := rng.Intn(len(d.live)); d.live[i] {
			e.stopTicker(i)
			d.live[i] = false
		}
	case nested:
		if k == 8 {
			e.stop()
		}
	case k == 8:
		d.note(boolVal(e.step()))
	case k == 9 || k == 10:
		e.runUntil(e.now() + Time(rng.Intn(2000)))
	case k == 11:
		e.runBefore(e.now() + Time(rng.Intn(2000)))
	default:
		if d.liveTickers() == 0 {
			e.run()
		} else {
			e.runUntil(e.now() + Time(rng.Intn(2000)))
		}
	}
}

// TestEngineMatchesReference drives seeded streams of Schedule, After,
// Every, Ticker.Stop, Cancel, Pending, Reschedule, Step, RunUntil,
// RunBefore and Run — with callbacks that schedule, cancel, reschedule
// and stop from inside a running event — through the engine and the
// reference. Handles stay addressable after their events ran, so stale
// handles on recycled slots are exercised throughout. After every
// operation the two must agree on execution order, Now, Processed, Seq,
// Pending and PendingEvents.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := &diffDriver{e: &realSide{e: NewEngine(seed)}, rng: rand.New(rand.NewSource(seed))}
		want := &diffDriver{e: &refSide{e: &refEngine{}}, rng: rand.New(rand.NewSource(seed))}
		checked := 0
		for i := 0; i < 1500; i++ {
			got.op(false)
			want.op(false)
			if len(got.log) != len(want.log) || !slices.Equal(got.log[checked:], want.log[checked:]) {
				t.Fatalf("seed %d op %d: logs diverge after entry %d: %v vs %v",
					seed, i, checked, got.log[checked:], want.log[checked:])
			}
			checked = len(got.log)
			if g, w := got.e.fingerprint(), want.e.fingerprint(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d op %d: engine at %+v, reference at %+v", seed, i, g, w)
			}
		}
		if stale := got.e.(*realSide).stale; got.nextID < 500 || len(got.live) == 0 || stale < 100 {
			t.Fatalf("seed %d: schedule too tame: %d events, %d tickers, %d stale-handle operations",
				seed, got.nextID, len(got.live), stale)
		}
	}
}

// TestStaleHandleLeavesReusedSlotAlone: once an event has run, or been
// canceled and discarded, its slot is reused by the next schedule. The
// old handle must then report nothing pending, cancel nothing, and
// reschedule as a fresh event, leaving the slot's new event untouched.
func TestStaleHandleLeavesReusedSlotAlone(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	old := e.Schedule(10, func() { ran = append(ran, "old") })
	e.Run()
	cur := e.Schedule(20, func() { ran = append(ran, "cur") })
	if cur.ev != old.ev {
		t.Fatal("the run event's slot was not reused")
	}
	if old.Pending() {
		t.Fatal("stale handle reports its slot's new event pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle canceled its slot's new event")
	}
	moved := e.Reschedule(old, 30, func() { ran = append(ran, "moved") })
	if moved.ev == cur.ev {
		t.Fatal("stale handle rescheduled its slot's new event")
	}
	if !cur.Pending() || !moved.Pending() {
		t.Fatal("new events not pending")
	}
	want := []PendingEvent{{At: 20, Seq: 1}, {At: 30, Seq: 2}}
	if got := e.PendingEvents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending %v, want %v", got, want)
	}
	e.Run()
	if !reflect.DeepEqual(ran, []string{"old", "cur", "moved"}) {
		t.Fatalf("ran %v", ran)
	}

	// A canceled event is recycled when the queue discards it.
	gone := e.Schedule(40, func() { ran = append(ran, "gone") })
	gone.Cancel()
	e.RunBefore(50)
	next := e.Schedule(60, func() { ran = append(ran, "next") })
	if next.ev != gone.ev {
		t.Fatal("the discarded event's slot was not reused")
	}
	if gone.Pending() || gone.Cancel() {
		t.Fatal("stale canceled handle reached its slot's new event")
	}
	e.Run()
	if ran[len(ran)-1] != "next" || len(ran) != 4 {
		t.Fatalf("ran %v", ran)
	}
}

// TestHandleOfRunningEventIsSpent: inside its own callback an event's
// handle is already spent, even though the callback may reuse the slot.
func TestHandleOfRunningEventIsSpent(t *testing.T) {
	e := NewEngine(1)
	var self, again EventHandle
	self = e.Schedule(5, func() {
		if self.Pending() || self.Cancel() {
			t.Error("running event's handle still live")
		}
		again = e.Schedule(6, func() {})
		if self.Pending() || !again.Pending() {
			t.Error("slot reuse inside the callback confused the handles")
		}
	})
	e.Run()
	if e.Processed != 2 {
		t.Fatalf("processed %d events, want 2", e.Processed)
	}
}
