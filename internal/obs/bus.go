package obs

import (
	"sync"
)

// BusEvent is one published event wrapped with the bus's own
// monotonically increasing sequence number. Per-host tracer sequence
// numbers collide once a fleet fans events into one stream, so the
// bus stamps its own — that number is what SSE uses as the event id
// and what Last-Event-ID resume is relative to.
type BusEvent struct {
	Seq   uint64
	Event Event
}

// Bus is a bounded ring of recent events that subscribers read
// through cursors, without ever blocking the publisher. A host's
// tracer writes each event here once: the ring is both the trace
// export and the live stream. A subscriber loses events only when it
// falls a whole ring behind; Publish then advances its cursor past the
// overwritten event and counts the drop — the simulation hot path pays
// one short mutex and a nudge per subscriber, never a wait. A
// reconnecting subscriber resumes from any sequence the ring still
// holds.
//
// The ring holds only what it stores: its slots live in fixed-size
// chunks allocated, never copied, as the first pass over the ring
// reaches them. Publish allocates only when it opens a chunk, so at
// most capacity/busChunk times over the bus's life. The zero Bus is
// not usable; use NewBus.
type Bus struct {
	mu       sync.Mutex
	seq      uint64
	capacity uint64
	chunks   [][]BusEvent // the ring; see slot
	subs     []*Subscription
	closed   bool

	// parent, when set, receives a copy of every event, stamped with
	// host (the fleet stream's fan-in).
	parent *Bus
	host   string

	drop    *Counter // counts cursor overruns across all subscribers
	dropped uint64
}

// busChunk is how many ring slots a bus allocates at a time (7.5 KiB
// of events: a built host holds about ten); a power of two so a slot
// index splits into chunk and offset with a shift and a mask.
const (
	busChunkShift = 6
	busChunk      = 1 << busChunkShift
)

// NewBus returns a bus retaining up to capacity events. It allocates
// no ring slots until events arrive.
func NewBus(capacity int) *Bus {
	return &Bus{capacity: uint64(max(capacity, 1))}
}

// slot returns the ring slot that holds sequence number seq. Sequence
// numbers start at 1, so the first pass fills slots, and opens
// chunks, in order.
func (b *Bus) slot(seq uint64) *BusEvent {
	i := (seq - 1) % b.capacity
	return &b.chunks[i>>busChunkShift][i&(busChunk-1)]
}

// SetDropCounter wires the counter incremented whenever a subscriber
// falls a ring behind and loses an undelivered event (the exported
// obs_sse_dropped_total).
func (b *Bus) SetDropCounter(c *Counter) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.drop = c
	b.mu.Unlock()
}

// ForwardTo mirrors every event published on b into parent, stamping
// Host so the fleet stream can say which host each event came from.
// A bus has at most one parent; a later call replaces it.
func (b *Bus) ForwardTo(parent *Bus, host string) {
	if b == nil || parent == nil {
		return
	}
	b.mu.Lock()
	b.parent, b.host = parent, host
	b.mu.Unlock()
}

// Publish stamps ev with the next bus sequence number and writes it
// to the ring. It never blocks, and allocates only when it opens a
// ring chunk.
func (b *Bus) Publish(ev Event) {
	if b != nil {
		b.publish(ev, false)
	}
}

// publish writes ev into the next slot. With stampSeq it also sets
// ev.Seq to the event's zero-based position on this bus (the tracer's
// sequence), under the same lock, so concurrent emitters can never
// interleave tracer and bus order. A subscriber whose next undelivered
// event is the one overwritten skips past it, counted as one drop.
func (b *Bus) publish(ev Event, stampSeq bool) {
	b.mu.Lock()
	if stampSeq {
		ev.Seq = b.seq
	}
	b.seq++
	if b.seq <= b.capacity && (b.seq-1)&(busChunk-1) == 0 {
		b.chunks = append(b.chunks, make([]BusEvent, min(busChunk, b.capacity-b.seq+1)))
	}
	*b.slot(b.seq) = BusEvent{Seq: b.seq, Event: ev}
	for _, s := range b.subs {
		if s.next+b.capacity <= b.seq {
			s.next++
			s.dropped++
			b.dropped++
			b.drop.Inc()
		}
		select {
		case s.ready <- struct{}{}:
		default:
		}
	}
	parent, host := b.parent, b.host
	b.mu.Unlock()
	// Forward outside the lock: parent.Publish takes the parent's
	// mutex and must not nest inside ours.
	if parent != nil {
		if ev.Host == "" {
			ev.Host = host
		}
		parent.Publish(ev)
	}
}

// oldest returns the sequence number of the oldest retained event
// (seq+1 when nothing has been published). Caller holds b.mu.
func (b *Bus) oldest() uint64 {
	if b.seq > b.capacity {
		return b.seq - b.capacity + 1
	}
	return 1
}

// Seq returns the sequence number of the most recently published
// event (0 before the first publish).
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Dropped returns the total events lost to slow subscribers.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a subscriber starting from the next published
// event.
func (b *Bus) Subscribe() *Subscription {
	return b.SubscribeFrom(^uint64(0))
}

// SubscribeFrom registers a subscriber whose first Drain returns the
// retained events with sequence numbers greater than afterSeq
// (Last-Event-ID resume). Pass ^uint64(0) to start fresh. Events
// older than the ring are gone; the subscriber observes the gap
// through sequence numbers, not an error. On a closed bus the
// subscription starts closed.
func (b *Bus) SubscribeFrom(afterSeq uint64) *Subscription {
	if b == nil {
		return nil
	}
	s := &Subscription{bus: b, ready: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	s.next = b.seq + 1
	if afterSeq < b.seq {
		s.next = max(afterSeq+1, b.oldest())
		s.ready <- struct{}{}
	}
	if b.closed {
		close(s.ready)
		return s
	}
	b.subs = append(b.subs, s)
	return s
}

// Close ends every subscription: their Ready channels close, so each
// consumer drains what is left and stops. The ring stays readable.
// A host closes its bus when a restore replaces its manager, which is
// what tells a streaming client to reconnect to the new one.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		close(s.ready)
	}
	b.subs = nil
}

// Subscription is one subscriber's cursor into the bus ring. Drain and
// Ready are safe to use from a single consumer goroutine while
// publishers keep running.
type Subscription struct {
	bus   *Bus
	ready chan struct{}

	// Guarded by bus.mu.
	next    uint64 // sequence of the next event to deliver
	dropped uint64
}

// Ready returns a channel that receives a nudge when events are
// pending. One nudge can cover many events: always Drain after it.
// The channel closes when the bus does.
func (s *Subscription) Ready() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.ready
}

// Drain returns and consumes all pending events, oldest first.
func (s *Subscription) Drain() []BusEvent {
	if s == nil {
		return nil
	}
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	first := max(s.next, b.oldest())
	s.next = b.seq + 1
	if first > b.seq {
		return nil
	}
	out := make([]BusEvent, 0, b.seq-first+1)
	for q := first; q <= b.seq; q++ {
		out = append(out, *b.slot(q))
	}
	return out
}

// Dropped returns how many events this subscriber lost to overwrite.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	b := s.bus
	b.mu.Lock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}
