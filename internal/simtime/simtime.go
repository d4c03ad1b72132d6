// Package simtime provides a deterministic discrete-event simulation
// engine with nanosecond-resolution virtual time.
//
// All simulated subsystems in this repository (the fabric, the
// monitoring pipeline, the arbiter control loop) share one Engine. The
// engine owns virtual time: callbacks scheduled on it run in strictly
// non-decreasing time order, and events scheduled for the same instant
// run in scheduling order. No wall-clock time enters the simulation, so
// every run with the same seed is bit-for-bit reproducible.
package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts
// directly to and from time.Duration.
type Duration int64

// Common durations, mirroring the time package for readability at call
// sites that describe hardware latencies.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Std converts d to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string { return time.Duration(d).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds returns the time as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. seq breaks ties so that events
// scheduled for the same instant run in FIFO order. Events are owned by
// their engine and recycled through its free list once popped; gen
// counts the recycles, so a handle can tell its event from a later one
// that reuses the slot.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	gen      uint64
	canceled bool
	index    int // heap index, -1 when popped
}

// EventHandle identifies a scheduled event so it can be canceled. It
// names the event's slot and the generation the slot had when the
// event was scheduled; once the event has run or been discarded the
// slot's generation moves on and the handle refers to nothing.
type EventHandle struct {
	ev  *event
	gen uint64
}

// live returns the handle's event while it still waits in the queue,
// or nil once it has run, been canceled or been recycled.
func (h EventHandle) live() *event {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.canceled || h.ev.index == -1 {
		return nil
	}
	return h.ev
}

// Cancel prevents the event from running. Canceling an already-run or
// already-canceled event is a no-op. Cancel reports whether the event
// was still pending.
func (h EventHandle) Cancel() bool {
	ev := h.live()
	if ev == nil {
		return false
	}
	ev.canceled = true
	return true
}

// Pending reports whether the event is still waiting to run.
func (h EventHandle) Pending() bool { return h.live() != nil }

// eventHeap is a binary min-heap on (at, seq). The key is unique per
// event, so the pop order is fixed by the set of queued events alone:
// how the heap arranges them cannot change what runs next.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts element i0 toward the leaves and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	i, n := i0, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	h.down(0)
	ev.index = -1
	return ev
}

// fix restores the heap order after element i's key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the simulation model is sequential by design so
// that results are deterministic.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	free    []*event // popped events, reused by Schedule
	rng     *rand.Rand
	stopped bool

	// Processed counts events that have run, for diagnostics.
	Processed uint64
}

// NewEngine returns an engine at time zero whose random source is
// seeded with seed. Every stochastic model in the simulation must draw
// from Rand() so runs are reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at the given absolute virtual time. Scheduling in
// the past panics: it would silently reorder causality.
func (e *Engine) Schedule(at Time, fn func()) EventHandle {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("simtime: schedule nil func")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return EventHandle{ev, ev.gen}
}

// recycle returns a popped event to the free list. Bumping gen retires
// every handle to it; dropping fn releases the callback's captures.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// Reschedule moves a still-pending event to a new absolute time,
// reusing its queue entry instead of allocating a fresh one. The event
// is assigned a fresh sequence number — exactly as Cancel followed by
// Schedule would — so same-instant execution order and the engine's
// scheduling fingerprint (Seq, PendingEvents) are indistinguishable
// from that idiom; only the allocation and the heap push/pop churn are
// saved. When h does not refer to a pending event (zero handle,
// already run, or canceled) a new event is scheduled. The fabric's
// completion re-arming leans on this: sized flows keep one event alive
// across every rate recomputation.
func (e *Engine) Reschedule(h EventHandle, at Time, fn func()) EventHandle {
	ev := h.live()
	if ev == nil {
		return e.Schedule(at, fn)
	}
	if at < e.now {
		panic(fmt.Sprintf("simtime: reschedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("simtime: reschedule nil func")
	}
	ev.at = at
	ev.fn = fn
	ev.seq = e.seq
	e.seq++
	e.queue.fix(ev.index)
	return h
}

// After runs fn after duration d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) EventHandle {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Ticker is stopped. period must be positive.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.fire = t.tick
	t.arm()
	return t
}

// Ticker repeatedly runs a callback at a fixed virtual-time period.
type Ticker struct {
	engine *Engine
	period Duration
	fn     func()
	// fire is t.tick, bound once in Every, so re-arming allocates no
	// closure.
	fire    func()
	handle  EventHandle
	stopped bool
}

func (t *Ticker) arm() { t.handle = t.engine.After(t.period, t.fire) }

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks. It is safe to call from within the tick
// callback itself.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Period returns the ticker's period.
func (t *Ticker) Period() Duration { return t.period }

// Step runs the single earliest pending event, advancing virtual time
// to it. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		// The event is back on the free list before its callback
		// runs, so a callback may schedule into the slot it frees.
		ev := e.queue.pop()
		at, fn, canceled := ev.at, ev.fn, ev.canceled
		e.recycle(ev)
		if canceled {
			continue
		}
		e.now = at
		e.Processed++
		fn()
		return true
	}
	return false
}

// RunUntil processes events up to and including time t, then advances
// the clock to exactly t. Events scheduled during processing are
// honored if they fall within the horizon.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: run until %v before now %v", t, e.now))
	}
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunBefore processes the events due strictly before t, then advances
// the clock to exactly t. Whatever the caller does next at t lands
// ahead of every event already scheduled for t — the order a callback
// scheduled for t in advance would have had. Journal replay uses it to
// apply an entry issued at t before the engine's own events at t.
// Canceled events at the head of the queue are discarded without
// running anything past the horizon.
func (e *Engine) RunBefore(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: run before %v, before now %v", t, e.now))
	}
	e.stopped = false
	for !e.stopped {
		for len(e.queue) > 0 && e.queue[0].canceled {
			e.recycle(e.queue.pop())
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

// RunFor processes events for duration d of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events waiting in the queue, including
// canceled events not yet discarded.
func (e *Engine) Pending() int { return len(e.queue) }

// Seq returns the number of events ever scheduled. Together with Now
// and Processed it fingerprints the engine's position in a run: two
// executions that agree on (Now, Processed, Seq) have scheduled and
// consumed the same event stream.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent describes one live queue entry without exposing its
// callback. The (At, Seq) pairs identify the queue's future exactly —
// checkpoint/replay tooling hashes them to compare engine states.
type PendingEvent struct {
	At  Time
	Seq uint64
}

// PendingEvents returns the live (non-canceled) queue entries sorted
// by execution order. Callbacks are deliberately absent: closures
// cannot be serialized, which is why snapshots are reconstructed by
// replay rather than by dumping the heap.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(e.queue))
	for _, ev := range e.queue {
		if ev.canceled {
			continue
		}
		out = append(out, PendingEvent{At: ev.at, Seq: ev.seq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
