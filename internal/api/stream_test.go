package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestStreamDecodesFrames: the client parses id/event/data triples,
// skips keepalive comments, and sends the Last-Event-ID resume header.
func TestStreamDecodesFrames(t *testing.T) {
	var gotResume string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotResume = r.Header.Get("Last-Event-ID")
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": keepalive\n\n")
		fmt.Fprint(w, "id: 8\nevent: heartbeat\ndata: {\"seq\":3}\n\n")
		fmt.Fprint(w, "id: 9\nevent: flow-start\ndata: {\"seq\":4}\n\n")
	}))
	defer ts.Close()

	var got []StreamEvent
	err := New(ts.URL).Stream(context.Background(), "/events", 7, func(ev StreamEvent) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotResume != "7" {
		t.Errorf("Last-Event-ID %q, want 7", gotResume)
	}
	if len(got) != 2 || got[0].ID != 8 || got[0].Type != "heartbeat" ||
		got[1].ID != 9 || got[1].Type != "flow-start" {
		t.Fatalf("frames %+v", got)
	}
	if string(got[0].Data) != `{"seq":3}` {
		t.Fatalf("data %q", got[0].Data)
	}
}

// TestStreamCallbackError propagates the consumer's error verbatim —
// how a watch command bails out on a malformed frame.
func TestStreamCallbackError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: heartbeat\ndata: {}\n\n")
	}))
	defer ts.Close()
	sentinel := errors.New("stop here")
	err := New(ts.URL).Stream(context.Background(), "/events", 0, func(StreamEvent) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v, want sentinel", err)
	}
}

// TestStreamErrorEnvelope: a non-2xx answer decodes as the typed API
// error, and a JSON endpoint masquerading as a stream is rejected.
func TestStreamErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"tracing disabled"}}`)
	}))
	defer ts.Close()
	err := New(ts.URL).Stream(context.Background(), "/events", 0, func(StreamEvent) error { return nil })
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Fatalf("err %v, want not_found envelope", err)
	}

	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	}))
	defer plain.Close()
	if err := New(plain.URL).Stream(context.Background(), "/events", 0, nil); err == nil {
		t.Fatal("non-stream content type accepted")
	}
}

// TestStreamCanceledContextIsClean: Ctrl-C mid-watch is a normal exit,
// not an error.
func TestStreamCanceledContextIsClean(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- New(ts.URL).Stream(ctx, "/events", 0, func(StreamEvent) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("canceled stream returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stream did not return after cancel")
	}
}

// TestHealthTyped decodes the health document into Health, every
// subsystem field included: strings and lists as well as counts.
func TestHealthTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{
			"status":"ok","version":"(devel)","go_version":"go1.24",
			"virtual_time_ns":1000000,"tenants":2,
			"subsystems":{
				"fabric":{"status":"ok","active_flows":3},
				"obs_bus":{"status":"ok","subscribers":1,"published":42,"dropped":0},
				"runner":{"status":"degraded","quarantined":["h1","h2"]},
				"store":{"status":"ok","dir":"/x","sync":"always","hosts":2}
			}
		}`)
	}))
	defer ts.Close()
	var h Health
	if err := New(ts.URL).Get(context.Background(), "/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "(devel)" || h.VirtualTimeNs != 1000000 || h.Tenants != 2 {
		t.Fatalf("health %+v", h)
	}
	sub := h.Subsystems
	if sub.Fabric.Status != "ok" || sub.Fabric.ActiveFlows != 3 || sub.ObsBus.Published != 42 {
		t.Fatalf("subsystems %+v", sub)
	}
	if sub.Runner.Status != "degraded" || len(sub.Runner.Quarantined) != 2 || sub.Runner.Quarantined[1] != "h2" {
		t.Fatalf("runner %+v", sub.Runner)
	}
	if sub.Store.FleetStats == nil || sub.Store.Dir != "/x" || sub.Store.Sync != "always" || sub.Store.Hosts != 2 {
		t.Fatalf("store %+v", sub.Store)
	}
	if sub.Remedy.RemedyCounts != nil {
		t.Fatalf("remedy counts %+v on a document without them", sub.Remedy.RemedyCounts)
	}
}
