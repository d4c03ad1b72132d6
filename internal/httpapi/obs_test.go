package httpapi

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/simtime"
)

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(2 * simtime.Millisecond) // heartbeats, arbiter ticks, recomputes
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE ihnet_fabric_flows_started_total counter",
		"ihnet_anomaly_probes_total",
		"ihnet_anomaly_detections_total",
		"ihnet_arbiter_adjustments_total",
		"# TYPE ihnet_fabric_recompute_duration_ns histogram",
		"ihnet_fabric_recompute_duration_ns_bucket",
		"ihnet_fabric_recompute_duration_ns_count",
		"ihnet_core_admissions_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestMetricsScrapeDuringAdvance scrapes concurrently with simulation
// advances; under -race this pins down the lock-free exposition claim.
func TestMetricsScrapeDuringAdvance(t *testing.T) {
	s, ts := newServer(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Advance(100 * simtime.Microsecond)
		}
	}()
	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	wg.Wait()
}

func TestTraceEventsEndpoint(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(simtime.Millisecond)
	var out struct {
		Events []struct {
			Seq       uint64 `json:"seq"`
			VirtualNs int64  `json:"virtual_ns"`
			WallNs    int64  `json:"wall_ns"`
			Kind      string `json:"kind"`
		} `json:"events"`
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/trace/events", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Events) == 0 || out.Total == 0 {
		t.Fatalf("no trace events after 1ms advance (total %d)", out.Total)
	}
	for i := 1; i < len(out.Events); i++ {
		if out.Events[i].Seq <= out.Events[i-1].Seq {
			t.Fatal("events not in sequence order")
		}
	}
	// Kind filter + limit.
	var hb struct {
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/trace/events?kind=heartbeat&limit=3", &hb); code != 200 {
		t.Fatalf("filtered status %d", code)
	}
	if len(hb.Events) == 0 || len(hb.Events) > 3 {
		t.Fatalf("filter/limit returned %d events", len(hb.Events))
	}
	for _, ev := range hb.Events {
		if ev.Kind != "heartbeat" {
			t.Errorf("kind filter leaked %q", ev.Kind)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/trace/events?kind=bogus", nil); code != 400 {
		t.Errorf("bogus kind: status %d, want 400", code)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(simtime.Millisecond)
	var out struct {
		Status        string  `json:"status"`
		GoVersion     string  `json:"go_version"`
		Uptime        float64 `json:"uptime_seconds"`
		VirtualTimeNs int64   `json:"virtual_time_ns"`
		MetricCount   int     `json:"metric_count"`
		TraceEvents   uint64  `json:"trace_events"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Status != "ok" || out.GoVersion == "" {
		t.Errorf("healthz: %+v", out)
	}
	if out.VirtualTimeNs != int64(simtime.Millisecond) {
		t.Errorf("virtual_time_ns = %d, want 1ms", out.VirtualTimeNs)
	}
	if out.MetricCount == 0 || out.TraceEvents == 0 {
		t.Errorf("observability counts empty: %+v", out)
	}
}

func TestPprofEndpoint(t *testing.T) {
	_, ts := newServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index missing profile listing")
	}
}
