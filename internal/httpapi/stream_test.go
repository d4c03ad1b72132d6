package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	ID    uint64
	Event string
	Data  traceEventDTO
}

// readSSE consumes frames from an open event stream until n frames
// arrive or the context expires.
func readSSE(t *testing.T, ctx context.Context, url string, header http.Header, n int) []sseFrame {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if len(frames) >= n {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return frames
}

// TestEventsSSEStreaming: the host event stream delivers live trace
// events as they happen, ids are the monotonically increasing bus
// sequence, and ?since=0 replays retained history.
func TestEventsSSEStreaming(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(simtime.Millisecond) // populate the replay ring

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	frames := readSSE(t, ctx, ts.URL+"/api/v1/events?since=0", nil, 10)
	if len(frames) < 10 {
		t.Fatalf("got %d frames, want 10", len(frames))
	}
	for i, f := range frames {
		if f.Data.BusSeq != f.ID {
			t.Errorf("frame %d: data bus_seq %d != SSE id %d", i, f.Data.BusSeq, f.ID)
		}
		if f.Event == "" || f.Data.Kind != f.Event {
			t.Errorf("frame %d: event type %q vs kind %q", i, f.Event, f.Data.Kind)
		}
		if i > 0 && f.ID <= frames[i-1].ID {
			t.Fatalf("SSE ids not increasing: %d after %d", f.ID, frames[i-1].ID)
		}
	}

	// Live delivery: subscribe at the tail, then advance.
	done := make(chan []sseFrame, 1)
	go func() { done <- readSSE(t, ctx, ts.URL+"/api/v1/events", nil, 3) }()
	deadline := time.After(8 * time.Second)
	for {
		select {
		case live := <-done:
			if len(live) < 3 {
				t.Fatalf("live stream delivered %d frames", len(live))
			}
			if live[0].ID <= frames[len(frames)-1].ID {
				t.Errorf("live stream replayed old events: id %d", live[0].ID)
			}
			return
		case <-deadline:
			t.Fatal("live SSE frames never arrived")
		default:
			s.Advance(100 * simtime.Microsecond)
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestEventsSSEResume: reconnecting with Last-Event-ID picks up
// exactly after the last delivered sequence number.
func TestEventsSSEResume(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(simtime.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	first := readSSE(t, ctx, ts.URL+"/api/v1/events?since=0", nil, 5)
	last := first[len(first)-1].ID
	h := http.Header{"Last-Event-ID": []string{fmt.Sprint(last)}}
	resumed := readSSE(t, ctx, ts.URL+"/api/v1/events", h, 5)
	if resumed[0].ID != last+1 {
		t.Fatalf("resume after %d started at %d, want %d", last, resumed[0].ID, last+1)
	}
}

// TestEventsSSEBadParams: malformed resume points and buffer sizes get
// the 400 envelope, not a stream.
func TestEventsSSEBadParams(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(100 * simtime.Microsecond)
	for _, url := range []string{
		ts.URL + "/api/v1/events?since=banana",
		ts.URL + "/api/v1/events?buffer=-1",
		ts.URL + "/api/v1/events?buffer=9999999",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
		decodeEnvelope(t, resp)
	}
}

// TestStalledSSEClientNeverBlocksAdvance is the HTTP face of the
// no-backpressure contract: a subscriber that connects with a tiny
// buffer and never reads must not slow the simulation down. Run under
// -race this also pins down publisher/subscriber memory safety.
func TestStalledSSEClientNeverBlocksAdvance(t *testing.T) {
	s, ts := newServer(t)
	// Open the stream and then never read from it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/events?buffer=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A stalled subscriber in place, the simulation must keep pace:
	// 50ms of virtual time generates thousands of events into a
	// 4-slot ring.
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.Advance(simtime.Millisecond)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("advances took %v with a stalled subscriber", el)
	}
	// The health endpoint still answers and reports the subscriber.
	var hz struct {
		Subsystems struct {
			ObsBus struct {
				Subscribers int    `json:"subscribers"`
				Published   uint64 `json:"published"`
			} `json:"obs_bus"`
		} `json:"subsystems"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &hz); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if hz.Subsystems.ObsBus.Subscribers == 0 {
		t.Error("healthz does not see the SSE subscriber")
	}
	if hz.Subsystems.ObsBus.Published == 0 {
		t.Error("no events published during advances")
	}
}

// TestHealthzSubsystems: the enriched health document carries the
// build version and per-subsystem status.
func TestHealthzSubsystems(t *testing.T) {
	_, ts := newServer(t)
	var out struct {
		Status     string `json:"status"`
		Version    string `json:"version"`
		Subsystems struct {
			Fabric struct {
				Status string `json:"status"`
			} `json:"fabric"`
			Snap struct {
				Status  string `json:"status"`
				Enabled bool   `json:"enabled"`
			} `json:"snap"`
			ObsBus struct {
				Status string `json:"status"`
			} `json:"obs_bus"`
		} `json:"subsystems"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Status != "ok" || out.Version == "" {
		t.Errorf("healthz top level: %+v", out)
	}
	if out.Subsystems.Fabric.Status != "ok" || out.Subsystems.ObsBus.Status != "ok" {
		t.Errorf("subsystem status: %+v", out.Subsystems)
	}
	if !out.Subsystems.Snap.Enabled || out.Subsystems.Snap.Status != "ok" {
		t.Errorf("session server reports snap %+v", out.Subsystems.Snap)
	}
}

// TestAccessLogMiddleware: every request gets a correlation ID (minted
// or client-supplied), echoed in the response header and logged.
func TestAccessLogMiddleware(t *testing.T) {
	s, _ := newServer(t)
	var mu sync.Mutex
	var lines []string
	logged := AccessLog(s.Handler(), func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	ts := httptest.NewServer(logged)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("no X-Request-ID echoed for a minted ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/topology", nil)
	req.Header.Set("X-Request-ID", "client-chosen-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-chosen-7" {
		t.Fatalf("client-supplied ID not echoed: %q", got)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2: %v", len(lines), lines)
	}
	for i, want := range []string{minted, "client-chosen-7"} {
		if !strings.Contains(lines[i], "req_id="+want) ||
			!strings.Contains(lines[i], "method=GET") ||
			!strings.Contains(lines[i], "path=/api/v1/topology") ||
			!strings.Contains(lines[i], "status=200") ||
			!strings.Contains(lines[i], "dur_us=") {
			t.Errorf("line %d malformed: %q", i, lines[i])
		}
	}
}

// TestRequestIDRootsSpan closes the correlation loop: a mutating
// request's X-Request-ID becomes the journal entry's span and shows up
// on the trace events its effects emitted.
func TestRequestIDRootsSpan(t *testing.T) {
	s, _ := newServer(t)
	ts := httptest.NewServer(AccessLog(s.Handler(), nil))
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/advance",
		strings.NewReader(`{"micros":500}`))
	req.Header.Set("X-Request-ID", "req-weave-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("advance status %d", resp.StatusCode)
	}

	// The journal entry carries the request ID as its span.
	var journal struct {
		Entries []struct {
			Kind string `json:"kind"`
			Span string `json:"span"`
		} `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/journal", &journal); code != 200 {
		t.Fatalf("journal status %d", code)
	}
	found := false
	for _, e := range journal.Entries {
		if e.Span == "req-weave-1" {
			found = true
			if e.Kind != "advance" {
				t.Errorf("span landed on %q entry", e.Kind)
			}
		}
	}
	if !found {
		t.Fatalf("no journal entry carries the request ID: %+v", journal.Entries)
	}

	// And the trace events emitted during that command carry it too.
	var events struct {
		Events []traceEventDTO `json:"events"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/trace/events", &events); code != 200 {
		t.Fatalf("trace events status %d", code)
	}
	spanned := 0
	for _, ev := range events.Events {
		if ev.Span == "req-weave-1" {
			spanned++
		}
	}
	if spanned == 0 {
		t.Fatal("no trace events carry the request span")
	}
}

// TestFleetRollupEndpoint: one scrape of the fleet roll-up sees every
// host folded in — counters summed, histograms merged.
func TestFleetRollupEndpoint(t *testing.T) {
	s, ts := newFleetServer(t)
	s.Advance(2 * simtime.Millisecond)
	var roll struct {
		Source     string            `json:"source"`
		Hosts      int               `json:"hosts"`
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/metrics/rollup", &roll); code != 200 {
		t.Fatalf("rollup status %d", code)
	}
	if roll.Source != "fleet" || roll.Hosts != 2 {
		t.Fatalf("rollup source=%q hosts=%d, want fleet/2", roll.Source, roll.Hosts)
	}
	var want uint64
	for _, h := range s.Fleet().Hosts() {
		want += h.Mgr.Obs().Registry.Snapshot(h.Name).Counters["ihnet_fabric_flows_started_total"]
	}
	if want == 0 {
		t.Fatal("fixture generated no flows")
	}
	if got := roll.Counters["ihnet_fabric_flows_started_total"]; got != want {
		t.Fatalf("rolled-up flows %d, want %d", got, want)
	}
	if h := roll.Histograms["ihnet_fabric_recompute_duration_ns"]; h.Count == 0 {
		t.Error("rollup missing merged recompute histogram")
	}

	// The Prometheus view of the same roll-up rides on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		"ihnet_fleet_epochs_total",                 // runner's own registry
		"ihnet_fabric_flows_started_total",         // rolled-up host counter
		"ihnet_fabric_recompute_duration_ns_count", // merged histogram
	} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("fleet /metrics missing %q", wantLine)
		}
	}
}

// TestFleetEventsSSE: the fleet stream carries host-tagged events from
// every member plus the runner's epoch barriers.
func TestFleetEventsSSE(t *testing.T) {
	s, ts := newFleetServer(t)
	s.Advance(2 * simtime.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	frames := readSSE(t, ctx, ts.URL+"/api/v1/fleet/events?since=0", nil, 50)
	if len(frames) < 50 {
		t.Fatalf("got %d fleet frames", len(frames))
	}
	hosts := make(map[string]int)
	epochs := 0
	for _, f := range frames {
		if f.Event == "fleet-epoch" {
			epochs++
			continue
		}
		if f.Data.Host == "" {
			t.Fatalf("fleet event without host tag: %+v", f.Data)
		}
		hosts[f.Data.Host]++
	}
	if len(hosts) < 2 {
		t.Errorf("fleet stream saw hosts %v, want both", hosts)
	}
	if epochs == 0 {
		t.Error("no epoch barrier events in the fleet stream")
	}
}
