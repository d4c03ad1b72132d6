package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// refBus is the bus as it was before chunked growth: one ring of
// events sized to the capacity up front, indexed by seq % capacity.
// It is the reference the differential test holds Bus to.
type refBus struct {
	seq     uint64
	ring    []BusEvent
	subs    []*refSub
	dropped uint64
}

type refSub struct {
	next    uint64
	dropped uint64
}

func newRefBus(capacity int) *refBus { return &refBus{ring: make([]BusEvent, capacity)} }

func (b *refBus) Publish(ev Event) {
	b.seq++
	n := uint64(len(b.ring))
	b.ring[b.seq%n] = BusEvent{Seq: b.seq, Event: ev}
	for _, s := range b.subs {
		if s.next+n <= b.seq {
			s.next++
			s.dropped++
			b.dropped++
		}
	}
}

func (b *refBus) oldest() uint64 {
	if n := uint64(len(b.ring)); b.seq > n {
		return b.seq - n + 1
	}
	return 1
}

func (b *refBus) retained(from uint64) (head, tail []BusEvent) {
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

func (b *refBus) SubscribeFrom(afterSeq uint64) *refSub {
	s := &refSub{next: b.seq + 1}
	if afterSeq < b.seq {
		s.next = max(afterSeq+1, b.oldest())
	}
	b.subs = append(b.subs, s)
	return s
}

func (b *refBus) Drain(s *refSub) []BusEvent {
	head, tail := b.retained(s.next)
	s.next = b.seq + 1
	if len(head) == 0 {
		return nil
	}
	out := make([]BusEvent, 0, len(head)+len(tail))
	return append(append(out, head...), tail...)
}

func (b *refBus) Close(s *refSub) {
	b.subs = slices.DeleteFunc(b.subs, func(cur *refSub) bool { return cur == s })
}

// TestBusMatchesReference: over seeded schedules of publishes,
// subscriptions, resumes, drains and closes, a Bus (read through its
// tracer) agrees with the reference on every Drain, every
// per-subscriber and bus-wide drop count, the drop counter, the
// retained trace and the tracer's drop count. Each schedule keeps one
// subscriber that drains after every burst and one that never drains,
// and runs across the chunk and wrap boundaries of capacities below,
// at, across and not a multiple of the chunk size.
func TestBusMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 5, busChunk - 1, busChunk, busChunk + 1, 2*busChunk + 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				busVsReference(t, capacity, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func busVsReference(t *testing.T, capacity int, rng *rand.Rand) {
	tr := NewTracer(capacity)
	bus := tr.bus
	drops := NewRegistry().Counter("dropped", "")
	bus.SetDropCounter(drops)
	ref := newRefBus(capacity)

	type pair struct {
		sub *Subscription
		ref *refSub
	}
	subscribe := func(after uint64) pair {
		return pair{bus.SubscribeFrom(after), ref.SubscribeFrom(after)}
	}
	fast, stalled := subscribe(^uint64(0)), subscribe(^uint64(0))
	var others []pair
	drain := func(what string, p pair) {
		t.Helper()
		if got, want := p.sub.Drain(), ref.Drain(p.ref); !slices.Equal(got, want) {
			t.Fatalf("seq %d: %s subscriber drained %d events, reference %d (or contents differ)",
				ref.seq, what, len(got), len(want))
		}
		if got, want := p.sub.Dropped(), p.ref.dropped; got != want {
			t.Fatalf("seq %d: %s subscriber dropped %d, reference %d", ref.seq, what, got, want)
		}
	}

	for ref.seq < uint64(3*capacity+busChunk) {
		burst := 1 + rng.Intn(max(1, capacity/2))
		if rng.Intn(4) == 0 {
			burst += capacity
		}
		for i := 0; i < burst; i++ {
			v := ref.seq + 1
			ev := Event{Virtual: simtime.Time(v), Kind: KindRateRecompute, Subject: "fabric", Value: float64(v)}
			bus.Publish(ev)
			ref.Publish(ev)
		}
		drain("fast", fast)
		switch rng.Intn(4) {
		case 0: // resume from a random point, possibly beyond the ring or ahead of it
			after := uint64(rng.Int63n(int64(ref.seq) + 3))
			if rng.Intn(5) == 0 {
				after = ^uint64(0)
			}
			others = append(others, subscribe(after))
		case 1:
			if len(others) > 0 {
				drain("resumed", others[rng.Intn(len(others))])
			}
		case 2:
			if len(others) > 0 {
				i := rng.Intn(len(others))
				others[i].sub.Close()
				ref.Close(others[i].ref)
				others = slices.Delete(others, i, i+1)
			}
		}
		if got, want := bus.Dropped(), ref.dropped; got != want || drops.Value() != want {
			t.Fatalf("seq %d: bus dropped %d (counter %d), reference %d", ref.seq, got, drops.Value(), want)
		}
		if got, want := tr.Dropped(), ref.oldest()-1; got != want {
			t.Fatalf("seq %d: tracer dropped %d, reference %d", ref.seq, got, want)
		}
		head, tail := ref.retained(1)
		var want []Event
		for _, be := range append(slices.Clone(head), tail...) {
			want = append(want, be.Event)
		}
		if got := tr.Snapshot(); !slices.Equal(got, want) {
			t.Fatalf("seq %d: snapshot holds %d events, reference %d (or contents differ)", ref.seq, len(got), len(want))
		}
	}
	drain("stalled", stalled)
	for _, p := range others {
		drain("resumed", p)
	}
	if tr.Capacity() != capacity || tr.Total() != ref.seq {
		t.Fatalf("capacity %d total %d, want %d and %d", tr.Capacity(), tr.Total(), capacity, ref.seq)
	}
}

// TestBusGrowsInChunks: a new bus holds no slots, each chunk is opened
// only when the first pass reaches it, the last one is cut to the
// capacity, and a wrapped bus publishes without allocating.
func TestBusGrowsInChunks(t *testing.T) {
	const capacity = 2*busChunk + 7
	b := NewBus(capacity)
	if len(b.chunks) != 0 {
		t.Fatalf("new bus holds %d chunks", len(b.chunks))
	}
	ev := Event{Kind: KindRateRecompute, Subject: "fabric"}
	for n := 1; n <= capacity+busChunk; n++ {
		b.Publish(ev)
		if want := min((n+busChunk-1)/busChunk, 3); len(b.chunks) != want {
			t.Fatalf("after %d events: %d chunks, want %d", n, len(b.chunks), want)
		}
	}
	if got := len(b.chunks[2]); got != 7 {
		t.Fatalf("last chunk holds %d slots, want 7", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Publish(ev) }); allocs != 0 {
		t.Fatalf("Publish on a wrapped bus allocates %.1f times", allocs)
	}
}
