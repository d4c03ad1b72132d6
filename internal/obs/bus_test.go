package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

func publishN(b *Bus, n int) {
	for i := 0; i < n; i++ {
		b.Publish(Event{Kind: KindHeartbeat, Virtual: simtime.Time(i)})
	}
}

// TestBusFanOutOrdering: every subscriber sees every event, in
// publish order, with dense bus sequence numbers.
func TestBusFanOutOrdering(t *testing.T) {
	b := NewBus(64)
	s1 := b.Subscribe()
	s2 := b.Subscribe()
	publishN(b, 50)
	for _, s := range []*Subscription{s1, s2} {
		evs := s.Drain()
		if len(evs) != 50 {
			t.Fatalf("drained %d events, want 50", len(evs))
		}
		for i, be := range evs {
			if be.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d, want %d", i, be.Seq, i+1)
			}
		}
		if s.Dropped() != 0 {
			t.Fatalf("dropped %d, want 0", s.Dropped())
		}
	}
}

// TestBusSlowSubscriberDrops: a stalled subscriber keeps only the
// newest ring's worth of events; the overwritten ones are counted on
// the subscription, the bus and the wired drop counter.
func TestBusSlowSubscriberDrops(t *testing.T) {
	b := NewBus(8)
	drop := &Counter{}
	b.SetDropCounter(drop)
	s := b.Subscribe()
	publishN(b, 100)
	if got := s.Dropped(); got != 92 {
		t.Fatalf("subscription dropped %d, want 92", got)
	}
	if got, bus := drop.Value(), b.Dropped(); got != 92 || bus != 92 {
		t.Fatalf("drop counter %d, bus dropped %d, want 92", got, bus)
	}
	evs := s.Drain()
	if len(evs) != 8 {
		t.Fatalf("drained %d, want 8", len(evs))
	}
	for i, be := range evs {
		if want := uint64(93 + i); be.Seq != want {
			t.Fatalf("kept event %d has seq %d, want %d (newest survive)", i, be.Seq, want)
		}
	}
}

// TestBusResume: SubscribeFrom replays retained events after the
// given sequence; events older than the replay ring are simply gone,
// visible as a sequence gap.
func TestBusResume(t *testing.T) {
	b := NewBus(16)
	publishN(b, 10)
	s := b.SubscribeFrom(4)
	evs := s.Drain()
	if len(evs) != 6 {
		t.Fatalf("resume drained %d events, want 6 (seqs 5..10)", len(evs))
	}
	if evs[0].Seq != 5 || evs[len(evs)-1].Seq != 10 {
		t.Fatalf("resume seq range [%d, %d], want [5, 10]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	s.Close()

	// Ask for history beyond the ring: only the retained tail exists.
	publishN(b, 30) // seq now 40, ring holds 25..40
	s2 := b.SubscribeFrom(0)
	evs = s2.Drain()
	if len(evs) != 16 {
		t.Fatalf("deep resume drained %d, want 16 (ring capacity)", len(evs))
	}
	if evs[0].Seq != 25 {
		t.Fatalf("deep resume starts at %d, want 25", evs[0].Seq)
	}

	// A resume cursor at the oldest retained event is the first one a
	// publish overwrites: one event lost, counted.
	s3 := b.SubscribeFrom(0)
	publishN(b, 1)
	evs = s3.Drain()
	if s3.Dropped() != 1 || len(evs) != 16 || evs[0].Seq != 26 {
		t.Fatalf("overrun resume: dropped %d, drained %d from %d; want 1, 16 from 26",
			s3.Dropped(), len(evs), evs[0].Seq)
	}
}

// TestBusSubscribeCloseConcurrent hammers publish, drain, subscribe
// and close from many goroutines — the race detector is the real
// assertion here.
func TestBusSubscribeCloseConcurrent(t *testing.T) {
	b := NewBus(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.Publish(Event{Kind: KindHeartbeat, Value: float64(i)})
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := b.Subscribe()
				select {
				case <-s.Ready():
				case <-stop:
				}
				s.Drain()
				s.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := b.Subscribe() // stalled: never drains
		defer s.Close()
		time.Sleep(10 * time.Millisecond)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if b.Subscribers() != 0 {
		t.Fatalf("%d subscribers leaked", b.Subscribers())
	}
}

// TestStalledSubscriberNeverBlocksEmit is the acceptance-criterion
// unit: a tracer wired to a bus with a permanently stalled subscriber
// keeps emitting at full speed — every emission lands in the trace
// ring, the publisher never waits, and the drop counter accounts for
// the subscriber's loss once it falls a whole ring behind.
func TestStalledSubscriberNeverBlocksEmit(t *testing.T) {
	o := New(4096)
	stalled := o.Bus.Subscribe() // never drained
	defer stalled.Close()

	const emits = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < emits; i++ {
			o.Tracer.Emit(Event{Kind: KindRateRecompute, Value: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("emitter blocked behind a stalled subscriber")
	}
	if got := o.Tracer.Total(); got != emits {
		t.Fatalf("tracer recorded %d events, want %d", got, emits)
	}
	wantDrops := uint64(emits - 4096)
	dropped := o.Registry.Snapshot("t").Counters["obs_sse_dropped_total"]
	if dropped != wantDrops || stalled.Dropped() != wantDrops {
		t.Fatalf("drops: counter %d, subscription %d, want %d",
			dropped, stalled.Dropped(), wantDrops)
	}
}

// TestTracerSpanStamping: events emitted inside BeginSpan/EndSpan
// carry the span; EndSpan observes wall latency into the wired
// histogram.
func TestTracerSpanStamping(t *testing.T) {
	o := New(64)
	sub := o.Bus.Subscribe()
	o.Tracer.BeginSpan("j42")
	o.Tracer.Emit(Event{Kind: KindCapSet, Subject: "x"})
	o.Tracer.Emit(Event{Kind: KindCapClear, Subject: "x"})
	o.Tracer.EndSpan()
	o.Tracer.Emit(Event{Kind: KindHeartbeat})

	evs := sub.Drain()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Event.Span != "j42" || evs[1].Event.Span != "j42" {
		t.Fatalf("span not stamped: %q %q", evs[0].Event.Span, evs[1].Event.Span)
	}
	if evs[2].Event.Span != "" {
		t.Fatalf("span leaked past EndSpan: %q", evs[2].Event.Span)
	}
	lat := o.Registry.Snapshot("t").Histograms["cmd_effect_latency_us"]
	if lat.Count != 1 {
		t.Fatalf("cmd_effect_latency_us count = %d, want 1", lat.Count)
	}
}

// TestBusCloseEndsSubscriptions: once a bus closes, every
// subscriber's Ready channel is closed while its pending events stay
// drainable, and a subscription taken on a closed bus starts closed —
// the signal a stream uses to end.
func TestBusCloseEndsSubscriptions(t *testing.T) {
	b := NewBus(16)
	s := b.Subscribe()
	publishN(b, 3)
	b.Close()
	if got := len(s.Drain()); got != 3 {
		t.Fatalf("drained %d after close, want 3", got)
	}
	for range s.Ready() {
	}
	if b.Subscribers() != 0 {
		t.Fatalf("%d subscribers after close", b.Subscribers())
	}
	late := b.SubscribeFrom(0)
	if got := len(late.Drain()); got != 3 {
		t.Fatalf("late subscriber replayed %d, want 3", got)
	}
	for range late.Ready() {
	}
	s.Close()
	late.Close()
}

// TestTracerSeqIsBusSeqMinusOne: the tracer and its bus share one
// ring, so every event's tracer sequence is its bus sequence minus
// one, under concurrent emitters too.
func TestTracerSeqIsBusSeqMinusOne(t *testing.T) {
	o := New(256)
	sub := o.Bus.Subscribe()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o.Tracer.Emit(Event{Kind: KindHeartbeat})
			}
		}()
	}
	wg.Wait()
	evs := sub.Drain()
	if len(evs) != 200 {
		t.Fatalf("drained %d, want 200", len(evs))
	}
	for _, be := range evs {
		if be.Event.Seq+1 != be.Seq {
			t.Fatalf("tracer seq %d with bus seq %d", be.Event.Seq, be.Seq)
		}
	}
}

// warmBus publishes once around the bus, so every ring chunk is open
// and a publish that follows is the steady-state one.
func warmBus(bus *Bus, ev Event) {
	for i := uint64(0); i < bus.capacity; i++ {
		bus.Publish(ev)
	}
}

// BenchmarkBusPublish measures the publish hot path with one stalled
// subscriber — the worst case the simulation thread can hit — on a bus
// whose ring is already full. Budget: 0 allocs/op.
func BenchmarkBusPublish(b *testing.B) {
	bus := NewBus(4096)
	sub := bus.Subscribe() // never drained: constant overrun
	defer sub.Close()
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	warmBus(bus, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// BenchmarkBusPublishFanout8 measures fan-out overhead with eight
// subscribers on a full ring. Budget: 0 allocs/op.
func BenchmarkBusPublishFanout8(b *testing.B) {
	bus := NewBus(4096)
	for i := 0; i < 8; i++ {
		defer bus.Subscribe().Close()
	}
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	warmBus(bus, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// TestBusPublishSteadyStateAllocatesNothing counts heap allocations
// (the Mallocs delta AllocsPerRun reads) across 10,000 publishes to a
// warm bus with a stalled subscriber, and requires exactly zero: a per-op average rounds an allocation every 50th
// publish down to 0.
func TestBusPublishSteadyStateAllocatesNothing(t *testing.T) {
	bus := NewBus(4096)
	stalled := bus.Subscribe()
	defer stalled.Close()
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	warmBus(bus, ev)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			bus.Publish(ev)
		}
	}); n != 0 {
		t.Fatalf("10,000 publishes allocated %v times", n)
	}
}
