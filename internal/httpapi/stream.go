package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// SSE streaming and the structured access log. Both ends of the
// correlation story live here: the access log mints the per-request
// ID that becomes the command's span, and the event stream carries
// that span back out on every effect the command caused.

// sseKeepalive is the comment-frame interval that keeps idle
// connections from being reaped by intermediaries.
const sseKeepalive = 15 * time.Second

// parseResumeSeq extracts the resume point: the standard
// Last-Event-ID header (set by EventSource on reconnect) or an
// explicit ?since= query parameter. Returns ^uint64(0) for "live
// only".
func parseResumeSeq(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("since"); q != "" {
		v = q
	}
	if v == "" {
		return ^uint64(0), nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume sequence %q", v)
	}
	return n, nil
}

// streamSSE serves a bus subscription as a text/event-stream: one
// frame per event with the bus sequence as the SSE id (so
// Last-Event-ID resume is exact), the event kind as the SSE event
// type, and the JSON envelope as data. The subscription is a cursor
// into the bus ring, which absorbs bursts; a client a whole ring
// behind the simulation loses the overwritten events and observes a
// sequence gap (counted in obs_sse_dropped_total) — the explicit
// alternative to blocking the hot path. The stream ends when the bus
// closes (its host's manager was replaced), so an EventSource client
// reconnects to the new bus.
func streamSSE(w http.ResponseWriter, r *http.Request, bus *obs.Bus) {
	if bus == nil {
		writeErr(w, fail(http.StatusNotFound, fmt.Errorf("event streaming unavailable: tracing is disabled")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, fmt.Errorf("response writer cannot stream"))
		return
	}
	after, err := parseResumeSeq(r)
	if err != nil {
		writeErr(w, fail(http.StatusBadRequest, err))
		return
	}
	sub := bus.SubscribeFrom(after)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for open := true; ; {
		for _, be := range sub.Drain() {
			if err := writeSSEFrame(w, be); err != nil {
				return // client gone
			}
		}
		fl.Flush()
		if !open {
			return // bus closed: the tail is out, let the client reconnect
		}
		select {
		case <-r.Context().Done():
			return
		case _, open = <-sub.Ready():
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeSSEFrame(w http.ResponseWriter, be obs.BusEvent) error {
	data, err := json.Marshal(traceEvent(be))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
		be.Seq, be.Event.Kind.String(), data)
	return err
}

// traceEvent converts a bus event to its wire form. BusSeq is the
// fleet/host stream position (the SSE id); Seq remains the
// originating tracer's ring sequence.
func traceEvent(be obs.BusEvent) api.TraceEvent {
	ev := be.Event
	return api.TraceEvent{
		BusSeq: be.Seq, Seq: ev.Seq, VirtualNs: int64(ev.Virtual), WallNs: ev.Wall,
		Kind: ev.Kind.String(), Subject: ev.Subject, Detail: ev.Detail,
		Value: ev.Value, WallDurNs: int64(ev.WallDur), Span: ev.Span, Host: ev.Host,
	}
}

// ctxKey is the private context-key namespace.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request's correlation ID: the one the
// AccessLog middleware minted (or accepted from an X-Request-ID
// header), falling back to the raw header when no middleware ran.
// Mutating handlers root the command span here, so a log line, a
// journal entry and a trace span all share one identifier.
func RequestID(r *http.Request) string {
	if v, ok := r.Context().Value(requestIDKey).(string); ok {
		return v
	}
	return r.Header.Get("X-Request-ID")
}

// statusRecorder captures the response status for the access log
// while passing Flush through so streaming endpoints keep working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestSeq mints request IDs for every AccessLog instance in the
// process. One process-scoped counter — not per-middleware, and not
// seeded from the wall clock — so IDs are unique across however many
// muxes a daemon mounts, and carry no wall-clock nondeterminism into
// the journal-correlated spans they become.
var requestSeq atomic.Uint64

// AccessLog wraps a handler with the structured access log: every
// request gets a correlation ID (client-supplied X-Request-ID or a
// minted "r<n>" from a process-scoped counter), echoed back in the
// response header, stored in the request context for span rooting, and
// logged in logfmt with route, status and wall duration in
// microseconds. logf is typically log.Printf; nil disables logging but
// keeps the ID plumbing.
func AccessLog(next http.Handler, logf func(format string, args ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = "r" + strconv.FormatUint(requestSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		if logf != nil {
			logf("req_id=%s method=%s path=%s status=%d dur_us=%d",
				id, r.Method, r.URL.Path, rec.status, time.Since(start).Microseconds())
		}
	})
}
