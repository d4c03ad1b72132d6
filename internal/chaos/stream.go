package chaos

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// streamWatcher subscribes to the session's live event bus for the
// whole chaos run and checks the "sse-consistency" invariant: what a
// streaming observer sees must agree with the journal's ground truth.
//
//   - bus sequence numbers are strictly increasing (an observer can
//     order events without trusting arrival order);
//   - nothing vanishes silently: delivered + counted drops equals the
//     bus's published total;
//   - every span carried by a streamed event names a journaled command
//     (or is empty, for boot-time events before the first command) —
//     the stream never attributes an effect to a command that was
//     never recorded.
type streamWatcher struct {
	bus       *obs.Bus
	sub       *obs.Subscription
	baseSeq   uint64 // events published before we subscribed
	lastSeq   uint64
	delivered uint64
	spans     map[string]uint64 // streamed span -> event count
}

// newStreamWatcher subscribes to the bus (nil-safe: tracing disabled
// means every check passes vacuously).
func newStreamWatcher(bus *obs.Bus) *streamWatcher {
	w := &streamWatcher{bus: bus, spans: make(map[string]uint64)}
	if bus != nil {
		// The cursor falls behind only when one advance publishes more
		// than the bus ring holds; either way delivered + dropped must
		// account for every published event.
		w.baseSeq = bus.Seq()
		w.sub = bus.Subscribe()
	}
	return w
}

// drain consumes pending events and checks sequence monotonicity.
// Call it with the simulation idle (the chaos loop is single-threaded,
// so a post-advance drain sees everything the advance published).
func (w *streamWatcher) drain(at simtime.Time, seq int) *Violation {
	if w.sub == nil {
		return nil
	}
	for _, be := range w.sub.Drain() {
		if be.Seq <= w.lastSeq {
			return &Violation{
				Invariant: "sse-consistency", At: at, Seq: seq,
				Detail: fmt.Sprintf("bus sequence not increasing: %d after %d", be.Seq, w.lastSeq),
			}
		}
		w.lastSeq = be.Seq
		w.delivered++
		w.spans[be.Event.Span]++
	}
	return nil
}

// finish drains one last time, reconciles delivery accounting against
// the bus, and checks every streamed span against the journal.
func (w *streamWatcher) finish(j snap.Journal, at simtime.Time, seq int) *Violation {
	if w.sub == nil {
		return nil
	}
	if v := w.drain(at, seq); v != nil {
		return v
	}
	published, dropped := w.bus.Seq()-w.baseSeq, w.sub.Dropped()
	if w.delivered+dropped != published {
		return &Violation{
			Invariant: "sse-consistency", At: at, Seq: seq,
			Detail: fmt.Sprintf("event accounting broken: %d delivered + %d dropped != %d published",
				w.delivered, dropped, published),
		}
	}
	journaled := make(map[string]bool, j.Len())
	for _, e := range j.Entries {
		journaled[e.Span] = true
	}
	for span, n := range w.spans {
		if span == "" || journaled[span] {
			continue
		}
		return &Violation{
			Invariant: "sse-consistency", At: at, Seq: seq, Subject: span,
			Detail: fmt.Sprintf("%d streamed events carry span %q, which names no journal entry", n, span),
		}
	}
	return nil
}
