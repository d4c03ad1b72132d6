package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
)

// EventKind is the type of a traced event.
type EventKind uint8

// Event taxonomy. Subjects are free-form identifiers scoped by kind
// (flow ID, link ID, tenant, heartbeat pair).
const (
	KindUnknown EventKind = iota
	// KindFlowAdmit marks a tenant admission through the manager's
	// compile -> schedule -> arbitrate pipeline.
	KindFlowAdmit
	// KindFlowStart marks a flow installed on the fabric.
	KindFlowStart
	// KindFlowDone marks a sized flow completing.
	KindFlowDone
	// KindFlowRemove marks a flow removed before completion.
	KindFlowRemove
	// KindRateRecompute marks one global max-min rate recomputation;
	// Value is the number of active flows, WallDur the CPU cost.
	KindRateRecompute
	// KindCapSet marks the arbiter installing or changing a
	// per-(link,tenant) rate cap; Value is the cap in bytes/second.
	KindCapSet
	// KindCapClear marks the arbiter clearing a cap.
	KindCapClear
	// KindSchedDecision marks one scheduler pathway decision; Detail
	// carries the chosen pathway or the rejection reason.
	KindSchedDecision
	// KindAnomalyDetect marks an anomaly detection incident.
	KindAnomalyDetect
	// KindHeartbeat marks one heartbeat round; Value is probes sent.
	KindHeartbeat
	// KindLinkFail marks a hard link failure injection.
	KindLinkFail
	// KindLinkDegrade marks a silent link degradation injection.
	KindLinkDegrade
	// KindLinkRestore marks a link returning to health (failure and
	// degradation cleared) — the recovery edge the anomaly platform's
	// clear path is audited against.
	KindLinkRestore
	// KindTenantEvict marks a tenant eviction.
	KindTenantEvict
	// KindFleetEpoch marks one fleet epoch barrier crossed; Value is
	// the number of hosts advanced, WallDur the epoch's wall cost.
	KindFleetEpoch
	// KindHostQuarantine marks a host being fenced out of the epoch
	// loop (panic quarantine or operator action).
	KindHostQuarantine
	// KindAnomalyCleared marks a previously alerted heartbeat pair
	// returning to health — the recovery edge the remediation loop's
	// MTTR accounting closes on.
	KindAnomalyCleared
	// KindRemedyPlan marks the remediation controller choosing an
	// action for an incident; Detail carries the candidate scoring.
	KindRemedyPlan
	// KindRemedyAct marks the controller executing a remediation
	// action through the journaled session path.
	KindRemedyAct
	// KindRemedyResolve marks an incident's invariant restored; Value
	// is the measured MTTR in microseconds of virtual time.
	KindRemedyResolve
)

var kindNames = [...]string{
	KindUnknown:        "unknown",
	KindFlowAdmit:      "flow-admit",
	KindFlowStart:      "flow-start",
	KindFlowDone:       "flow-done",
	KindFlowRemove:     "flow-remove",
	KindRateRecompute:  "rate-recompute",
	KindCapSet:         "cap-set",
	KindCapClear:       "cap-clear",
	KindSchedDecision:  "sched-decision",
	KindAnomalyDetect:  "anomaly-detect",
	KindHeartbeat:      "heartbeat",
	KindLinkFail:       "link-fail",
	KindLinkDegrade:    "link-degrade",
	KindLinkRestore:    "link-restore",
	KindTenantEvict:    "tenant-evict",
	KindFleetEpoch:     "fleet-epoch",
	KindHostQuarantine: "host-quarantine",
	KindAnomalyCleared: "anomaly-cleared",
	KindRemedyPlan:     "remedy-plan",
	KindRemedyAct:      "remedy-act",
	KindRemedyResolve:  "remedy-resolve",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves an event-kind name ("flow-start"); KindUnknown
// when unrecognized.
func KindByName(s string) EventKind {
	for k, n := range kindNames {
		if n == s {
			return EventKind(k)
		}
	}
	return KindUnknown
}

// Event is one traced occurrence, stamped with both clocks: Virtual is
// the simulation instant it models, Wall the process time it was
// recorded (unix nanoseconds) — the pairing that lets a trace answer
// both "what did the simulated host do" and "what did it cost us".
type Event struct {
	Seq     uint64
	Virtual simtime.Time
	Wall    int64
	Kind    EventKind
	Subject string
	Detail  string
	// Value is kind-specific (rate, probe count, flow count).
	Value float64
	// WallDur is the real CPU cost of the traced operation, for
	// kinds that measure one (e.g. rate recomputations).
	WallDur time.Duration
	// Span correlates the event with the journaled command that
	// caused it: effects emitted while a command applies inherit the
	// command's span ID, so a trace can be folded into causal
	// command -> effect flows.
	Span string
	// Host names the originating host once events from many hosts fan
	// into one fleet stream; empty on single-host buses.
	Host string
}

// Tracer stamps events and writes each one, once, into its bus: the
// bus ring is the trace. Export (Snapshot, Total, Dropped) reads that
// ring, and live subscribers are cursors into it. Emission takes at
// most two short mutexes (the span, then the bus); when the ring is
// full the oldest events are overwritten (Dropped counts them).
// Disabled tracers cost one atomic load per call site.
type Tracer struct {
	enabled atomic.Bool
	bus     *Bus

	// span is the active command span: events emitted between
	// BeginSpan and EndSpan are stamped with it.
	mu        sync.Mutex
	span      string
	spanStart int64 // wall nanos at BeginSpan

	// spanLatency, when set, observes the wall microseconds between
	// BeginSpan and EndSpan (cmd_effect_latency_us).
	spanLatency atomic.Pointer[Histogram]
}

// NewTracer returns an enabled tracer over a new bus retaining up to
// capacity events.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{bus: NewBus(capacity)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Emit records anything. Hot paths should
// check it before building event strings.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled toggles recording.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// SetSpanLatency wires the histogram that EndSpan observes span wall
// durations into, in microseconds.
func (t *Tracer) SetSpanLatency(h *Histogram) {
	if t != nil {
		t.spanLatency.Store(h)
	}
}

// BeginSpan opens a command span: until EndSpan, every emitted event
// carries id. Spans come from the journal (one per command), so they
// never nest — a second BeginSpan simply replaces the first.
func (t *Tracer) BeginSpan(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.span = id
	t.spanStart = time.Now().UnixNano()
	t.mu.Unlock()
}

// EndSpan closes the active span and observes its wall duration into
// the span-latency histogram (microseconds) — the command-to-effect
// latency the remediation loop's MTTR accounting builds on.
func (t *Tracer) EndSpan() {
	if t == nil {
		return
	}
	t.mu.Lock()
	open := t.span != ""
	start := t.spanStart
	t.span = ""
	t.spanStart = 0
	t.mu.Unlock()
	if !open {
		return
	}
	if h := t.spanLatency.Load(); h != nil {
		h.Observe(float64(time.Now().UnixNano()-start) / 1e3)
	}
}

// Emit records one event: it stamps the wall clock, the active span
// and the event's sequence (its zero-based position in the ring, one
// less than its bus sequence), then writes it into the bus. Nil
// tracers and disabled tracers are no-ops.
func (t *Tracer) Emit(ev Event) {
	if t == nil || !t.enabled.Load() {
		return
	}
	ev.Wall = time.Now().UnixNano()
	if ev.Span == "" {
		t.mu.Lock()
		ev.Span = t.span
		t.mu.Unlock()
	}
	t.bus.publish(ev, true)
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.bus.Seq()
}

// Dropped returns how many events have been overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.bus.mu.Lock()
	defer t.bus.mu.Unlock()
	return t.bus.oldest() - 1
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return int(t.bus.capacity)
}

// Snapshot returns the retained events, oldest first.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	b := t.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.oldest()
	out := make([]Event, 0, b.seq+1-first)
	for q := first; q <= b.seq; q++ {
		out = append(out, b.slot(q).Event)
	}
	return out
}
