package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// newServer boots a one-host recording fleet (the two-socket preset,
// named after its topology) behind the control plane — the shape of a
// single-host daemon.
func newServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New()
	if _, err := f.AddSession("two-socket", sess); err != nil {
		t.Fatal(err)
	}
	return serve(t, f, fleet.ShardConfig{})
}

// serve builds the control plane over f and serves it for the test.
func serve(t *testing.T, f *fleet.Fleet, cfg fleet.ShardConfig) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestTopologyEndpoint(t *testing.T) {
	_, ts := newServer(t)
	var topo struct {
		Name       string `json:"name"`
		Components []any  `json:"components"`
		Links      []any  `json:"links"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/topology", &topo); code != 200 {
		t.Fatalf("status %d", code)
	}
	if topo.Name != "two-socket" || len(topo.Components) != 29 || len(topo.Links) != 58 {
		t.Fatalf("topology DTO: %s, %d comps, %d links", topo.Name, len(topo.Components), len(topo.Links))
	}
}

func TestAdvanceAndReport(t *testing.T) {
	_, ts := newServer(t)
	body := strings.NewReader(`{"micros": 1000}`)
	resp, err := http.Post(ts.URL+"/api/v1/advance", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var adv map[string]int64
	_ = json.NewDecoder(resp.Body).Decode(&adv)
	resp.Body.Close()
	if adv["virtual_time_ns"] != int64(simtime.Millisecond) {
		t.Fatalf("virtual time %d, want 1ms", adv["virtual_time_ns"])
	}
	var rep struct {
		VirtualTimeNs int64 `json:"virtual_time_ns"`
		Links         []any `json:"links"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/report", &rep); code != 200 {
		t.Fatalf("report status %d", code)
	}
	if rep.VirtualTimeNs == 0 || len(rep.Links) != 58 {
		t.Fatalf("report: %+v", rep)
	}
	// Bad advance payloads.
	for _, payload := range []string{`{"micros": 0}`, `{"micros": 99999999999}`, `{`} {
		resp, err := http.Post(ts.URL+"/api/v1/advance", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q: status %d", payload, resp.StatusCode)
		}
	}
}

func TestTenantLifecycleOverHTTP(t *testing.T) {
	_, ts := newServer(t)
	body := `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":80}]}`
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Tenant   string             `json:"tenant"`
		Host     string             `json:"host"`
		LinksBps map[string]float64 `json:"guaranteed_links_bps"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status %d", resp.StatusCode)
	}
	if view.Tenant != "kv" || view.Host != "two-socket" || len(view.LinksBps) == 0 {
		t.Fatalf("view: %+v", view)
	}
	var tenants []struct {
		ID string `json:"id"`
	}
	getJSON(t, ts.URL+"/api/v1/tenants", &tenants)
	if len(tenants) != 1 || tenants[0].ID != "kv" {
		t.Fatalf("tenants: %+v", tenants)
	}
	// Duplicate admission conflicts.
	resp, _ = http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate admit status %d", resp.StatusCode)
	}
	// Evict.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/tenants/kv", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict status %d", resp.StatusCode)
	}
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double evict status %d", resp.StatusCode)
	}
}

func TestAdmitRejectedOverHTTP(t *testing.T) {
	_, ts := newServer(t)
	body := `{"tenant":"greedy","targets":[{"src":"gpu0","dst":"nic0","rate_gbps":9999}]}`
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e api.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || e.Error.Code != api.CodeConflict || e.Error.Message == "" {
		t.Fatalf("status %d, envelope %+v", resp.StatusCode, e)
	}
}

func TestPingAndTraceEndpoints(t *testing.T) {
	_, ts := newServer(t)
	var ping struct {
		Sent  int   `json:"sent"`
		Lost  int   `json:"lost"`
		AvgNs int64 `json:"avg_ns"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/diag/ping?src=gpu0&dst=nic0", &ping); code != 200 {
		t.Fatalf("ping status %d", code)
	}
	if ping.Sent != 10 || ping.Lost != 0 || ping.AvgNs <= 0 {
		t.Fatalf("ping: %+v", ping)
	}
	if code := getJSON(t, ts.URL+"/api/v1/diag/ping?src=gpu0&dst=nowhere", nil); code != http.StatusBadRequest {
		t.Fatalf("bad ping status %d", code)
	}
	var trace struct {
		Path string `json:"path"`
		Hops []struct {
			Link  string `json:"link"`
			RTTNs int64  `json:"rtt_ns"`
		} `json:"hops"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/diag/trace?src=gpu0&dst=socket0.dimm0_0", &trace); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if len(trace.Hops) == 0 || trace.Path == "" {
		t.Fatalf("trace: %+v", trace)
	}
}

func TestPerfVerifyAndUsageEndpoints(t *testing.T) {
	_, ts := newServer(t)
	// Admit a tenant first.
	body := `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":80}]}`
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status %d", resp.StatusCode)
	}
	var perf struct {
		AchievedBps float64 `json:"achieved_bps"`
		Bottleneck  string  `json:"bottleneck"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/diag/perf?src=gpu0&dst=nic1", &perf); code != 200 {
		t.Fatalf("perf status %d", code)
	}
	if perf.AchievedBps <= 0 || perf.Bottleneck == "" {
		t.Fatalf("perf: %+v", perf)
	}
	if code := getJSON(t, ts.URL+"/api/v1/diag/perf?src=gpu0&dst=nowhere", nil); code != http.StatusBadRequest {
		t.Fatalf("bad perf status %d", code)
	}
	var vs []struct {
		Met         bool    `json:"met"`
		AchievedBps float64 `json:"achieved_bps"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants/kv/verify", &vs); code != 200 {
		t.Fatalf("verify status %d", code)
	}
	if len(vs) != 1 || !vs[0].Met {
		t.Fatalf("verify: %+v", vs)
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants/ghost/verify", nil); code != http.StatusNotFound {
		t.Fatalf("ghost verify status %d", code)
	}
	var usage []struct {
		Link         string  `json:"link"`
		AllocatedBps float64 `json:"allocated_bps"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants/kv/usage", &usage); code != 200 {
		t.Fatalf("usage status %d", code)
	}
	if len(usage) == 0 || usage[0].AllocatedBps != 10e9 {
		t.Fatalf("usage: %+v", usage)
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants/ghost/usage", nil); code != http.StatusNotFound {
		t.Fatalf("ghost usage status %d", code)
	}
}

// TestPerfResolvesMemoryPseudoDestination: a pipe admitted as
// nic0 -> memory:socket0 can be probed by that name with tenant=; the
// probe journals the concrete DIMM the pipe was scheduled on. Without
// a tenant, or for a pipe the tenant does not hold, the pseudo-
// destination is a 400 that says what is missing.
func TestPerfResolvesMemoryPseudoDestination(t *testing.T) {
	s, ts := newServer(t)
	body := `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":80}]}`
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status %d", resp.StatusCode)
	}
	var perf api.Perf
	if code := getJSON(t, ts.URL+"/api/v1/diag/perf?src=nic0&dst=memory:socket0&tenant=kv", &perf); code != 200 {
		t.Fatalf("perf status %d", code)
	}
	if perf.AchievedBps <= 0 {
		t.Fatalf("perf: %+v", perf)
	}
	h := s.fleet.Host("two-socket")
	want := string(h.Mgr.Tenant("kv").Assignments[0].Path.Dst())
	j := h.Sess.Journal()
	if last := j.Entries[j.Len()-1]; last.Kind != snap.KindPerf || last.Dst != want {
		t.Fatalf("journaled perf dst %q (kind %s), want the assigned %q", last.Dst, last.Kind, want)
	}
	for _, c := range []struct{ query, msg string }{
		{"src=nic0&dst=memory:socket0", "needs tenant="},
		{"src=nic0&dst=memory:any&tenant=kv", "no admitted pipe"},
		{"src=nic0&dst=memory:socket0&tenant=ghost", "unknown tenant"},
	} {
		var e api.ErrorBody
		if code := getJSON(t, ts.URL+"/api/v1/diag/perf?"+c.query, &e); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.query, code)
		}
		if !strings.Contains(e.Error.Message, c.msg) {
			t.Fatalf("%s: message %q does not say %q", c.query, e.Error.Message, c.msg)
		}
	}
}

func TestDetectionsEndpoint(t *testing.T) {
	s, ts := newServer(t)
	// Calibrate, then break a link and let heartbeats find it.
	s.Advance(2 * simtime.Millisecond)
	s.mu.Lock()
	_ = s.only.Mgr.Fabric().FailLink("pcieswitch0->nic0")
	s.mu.Unlock()
	s.Advance(2 * simtime.Millisecond)
	var dets []struct {
		Pair     string `json:"pair"`
		Lost     bool   `json:"lost"`
		Suspects []struct {
			Link string `json:"link"`
		} `json:"suspects"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/detections", &dets); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(dets) == 0 {
		t.Fatal("no detections after failure")
	}
	if !dets[0].Lost || len(dets[0].Suspects) == 0 {
		t.Fatalf("detection: %+v", dets[0])
	}
}

func TestAlertsEndpoint(t *testing.T) {
	s, ts := newServer(t)
	s.mu.Lock()
	s.only.Mgr.Topology().Component("socket0.llc").SetConfig(topology.ConfigDDIO, "off")
	s.mu.Unlock()
	s.Advance(simtime.Millisecond)
	var alerts []struct {
		Kind string `json:"Kind"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/alerts", &alerts); code != 200 {
		t.Fatalf("status %d", code)
	}
	found := false
	for _, a := range alerts {
		if a.Kind == "config-drift" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no config-drift alert in %+v", alerts)
	}
}

func TestTelemetryEndpoint(t *testing.T) {
	s, ts := newServer(t)
	s.Advance(2 * simtime.Millisecond)
	var out struct {
		Points []struct {
			Link   string  `json:"link"`
			Metric string  `json:"metric"`
			Value  float64 `json:"value"`
		} `json:"points"`
		PointsPerSecond float64 `json:"points_per_second"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/telemetry?metric=util", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Points) == 0 || out.PointsPerSecond <= 0 {
		t.Fatalf("telemetry: %d points, %v pps", len(out.Points), out.PointsPerSecond)
	}
	for _, p := range out.Points {
		if p.Metric != "util" {
			t.Fatalf("metric filter leaked %q", p.Metric)
		}
	}
	// Link filter.
	link := out.Points[0].Link
	var filtered struct {
		Points []struct {
			Link string `json:"link"`
		} `json:"points"`
	}
	getJSON(t, ts.URL+"/api/v1/telemetry?link="+link, &filtered)
	for _, p := range filtered.Points {
		if p.Link != link {
			t.Fatalf("link filter leaked %q", p.Link)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/telemetry?since_ns=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since status %d", code)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newServer(t)
	var exp struct {
		ID       string     `json:"id"`
		Rows     [][]string `json:"rows"`
		Rendered string     `json:"rendered"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/experiments/e1", &exp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if exp.ID != "E1" || len(exp.Rows) != 5 || exp.Rendered == "" {
		t.Fatalf("experiment: %+v", exp)
	}
	if code := getJSON(t, ts.URL+"/api/v1/experiments/e99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown experiment status %d", code)
	}
}
