// Package obs is the system's self-observability substrate: a
// concurrency-safe metrics registry (counters, gauges, log-linear
// latency histograms) with near-zero-allocation hot-path updates, and
// a tracer recording typed events stamped with both virtual
// (simulation) and wall time into one bounded ring per host: the Bus.
// Trace export reads that ring, and live subscribers (SSE streams, the
// remediation controller, the chaos watcher) are cursors into it, so
// every event is written once however many readers it has.
//
// The paper's thesis is that the intra-host network is unmanageable
// because it is unobservable; obs applies the same standard to our own
// manager and simulator. Where internal/telemetry models the
// *simulated* host's telemetry pipeline (with its deliberate fidelity
// limits), obs measures the *real* process: how long a max-min
// recompute actually takes on the CPU, how many arbiter passes ran,
// what the scheduler decided and when. Exporters turn both halves into
// standard tooling formats: Prometheus text exposition for scrapes,
// JSON event dumps for the control plane, and Chrome trace_event JSON
// so a whole DES run can be inspected in about://tracing or Perfetto.
//
// Metric writers (the single-threaded simulation) and readers (HTTP
// scrapes on arbitrary goroutines) never share a lock: counters and
// gauges are single atomics, histogram buckets are atomic slots, and
// the tracer takes the bus's short mutex per event. A nil *Obs is
// valid everywhere and records nothing, so instrumented packages need
// no configuration to stay silent.
package obs

// Obs bundles the three halves of the observability substrate. The
// manager creates one and threads it through every subsystem.
type Obs struct {
	Registry *Registry
	Tracer   *Tracer
	// Bus is the tracer's ring: every traced event is written here
	// once, read back by trace export, streamed to SSE subscribers
	// and, in a fleet, forwarded upward to the fleet bus. Nil when
	// tracing is disabled.
	Bus *Bus
}

// New returns an Obs with an empty registry and a tracer whose bus
// holds up to traceCapacity events (a non-positive capacity disables
// tracing). A subscriber that falls a whole ring behind loses events
// (counted by obs_sse_dropped_total), never blocking emission.
// Command spans observe their wall duration into the
// cmd_effect_latency_us histogram.
func New(traceCapacity int) *Obs {
	o := &Obs{Registry: NewRegistry()}
	if traceCapacity > 0 {
		o.Tracer = NewTracer(traceCapacity)
		o.Bus = o.Tracer.bus
		o.Bus.SetDropCounter(o.Registry.Counter("obs_sse_dropped_total",
			"Events dropped because an SSE subscriber fell a whole ring behind."))
		o.Tracer.SetSpanLatency(o.Registry.Histogram("cmd_effect_latency_us",
			"Wall microseconds from journaled command begin to its last applied effect."))
	}
	return o
}
