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
// The zero Bus is not usable; NewBus allocates everything up front so
// Publish performs no allocation.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	ring   []BusEvent // indexed by seq % len
	subs   []*Subscription
	closed bool

	// parent, when set, receives a copy of every event, stamped with
	// host (the fleet stream's fan-in).
	parent *Bus
	host   string

	drop    *Counter // counts cursor overruns across all subscribers
	dropped uint64
}

// NewBus returns a bus retaining up to capacity events.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = 1
	}
	return &Bus{ring: make([]BusEvent, capacity)}
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
// to the ring. It never blocks and never allocates.
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
	n := uint64(len(b.ring))
	b.ring[b.seq%n] = BusEvent{Seq: b.seq, Event: ev}
	for _, s := range b.subs {
		if s.next+n <= b.seq {
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
	if n := uint64(len(b.ring)); b.seq > n {
		return b.seq - n + 1
	}
	return 1
}

// retained returns the retained events with sequence >= from, oldest
// first, as at most two slices of the ring — the one read path shared
// by subscription drains and trace export. Caller holds b.mu and must
// copy before releasing it.
func (b *Bus) retained(from uint64) (head, tail []BusEvent) {
	from = max(from, b.oldest())
	if from > b.seq {
		return nil, nil
	}
	n := uint64(len(b.ring))
	count := b.seq - from + 1
	start := from % n
	if start+count <= n {
		return b.ring[start : start+count], nil
	}
	return b.ring[start:], b.ring[:start+count-n]
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
	head, tail := b.retained(s.next)
	s.next = b.seq + 1
	if len(head) == 0 {
		return nil
	}
	out := make([]BusEvent, 0, len(head)+len(tail))
	return append(append(out, head...), tail...)
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
