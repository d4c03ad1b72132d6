package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// putJSON issues a PUT with a JSON body and decodes the response.
func putJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// newRemedyServer is newServer with the remediation controllers armed
// — on a one-host fleet, one controller without a fleet hook.
func newRemedyServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newServer(t)
	fc, err := remedy.NewFleet(s.Fleet(), s.Runner(), remedy.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	s.SetRemedy(fc)
	return s, ts
}

// TestRemedyEndpointsDisabled: without SetRemedy every remedy endpoint
// answers 404 with the typed envelope, and healthz reports the
// subsystem as disabled without degrading the daemon.
func TestRemedyEndpointsDisabled(t *testing.T) {
	_, ts := newServer(t)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/remedy/status", &env); code != http.StatusNotFound {
		t.Fatalf("status endpoint without controller: %d", code)
	}
	if env.Error.Code == "" {
		t.Fatalf("missing error envelope")
	}
	var hz struct {
		Status     string                    `json:"status"`
		Subsystems map[string]map[string]any `json:"subsystems"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &hz); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Status != "ok" || hz.Subsystems["remedy"]["status"] != "disabled" {
		t.Fatalf("healthz without controller: %+v", hz)
	}
}

// TestRemedyStatusAndHealthz drives a degrade through a live
// controller over HTTP: healthz flips to degraded while the incident
// is open and returns to ok once the loop heals it, with the repair
// visible in /remedy/status.
func TestRemedyStatusAndHealthz(t *testing.T) {
	s, ts := newRemedyServer(t)
	sess := s.only.Sess
	acfg := core.DefaultOptions().Anomaly
	s.Advance(simtime.Duration(acfg.CalibrationRounds+5) * acfg.Period)
	if err := sess.DegradeLink("cpu0->cpu1", 0, 50*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status     string                    `json:"status"`
		Subsystems map[string]map[string]any `json:"subsystems"`
	}
	// Advance one detector period at a time so we observe the window
	// between the incident opening and the loop healing it.
	sawDegraded := false
	for i := 0; i < 10 && !sawDegraded; i++ {
		s.Advance(acfg.Period)
		if code := getJSON(t, ts.URL+"/api/v1/healthz", &hz); code != 200 {
			t.Fatalf("healthz: %d", code)
		}
		sawDegraded = hz.Status == "degraded"
	}
	if !sawDegraded {
		t.Fatalf("healthz never reported degraded during incident: %+v", hz)
	}
	// Let the loop heal and hysteresis confirm.
	for i := 0; i < 40; i++ {
		s.Advance(acfg.Period)
	}
	var st api.RemedyStatus
	if code := getJSON(t, ts.URL+"/api/v1/remedy/status", &st); code != 200 {
		t.Fatalf("remedy status: %d", code)
	}
	if !st.Enabled || st.Degraded || st.Stats.Resolved != 1 || st.MTTRp50Us <= 0 {
		t.Fatalf("remedy status after heal: %+v", st)
	}
	if code := getJSON(t, ts.URL+"/api/v1/healthz", &hz); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Status != "ok" || hz.Subsystems["remedy"]["status"] != "ok" {
		t.Fatalf("healthz after heal: %+v", hz)
	}
}

// TestRemedyPolicyCRUD: read the default policy, replace it, reject a
// bad table.
func TestRemedyPolicyCRUD(t *testing.T) {
	s, ts := newRemedyServer(t)
	ctrl := s.rem.Controller("two-socket")

	var pol remedy.Policy
	if code := getJSON(t, ts.URL+"/api/v1/remedy/policy", &pol); code != 200 {
		t.Fatalf("get policy: %d", code)
	}
	if len(pol.Rules) == 0 || pol.CooldownUs <= 0 {
		t.Fatalf("default policy over HTTP: %+v", pol)
	}
	pol.CooldownUs = 777
	pol.Rules = []remedy.Rule{{Class: remedy.ClassAny, Actions: []remedy.ActionKind{remedy.ActionRollback}}}
	body, _ := json.Marshal(pol)
	var got remedy.Policy
	if code := putJSON(t, ts.URL+"/api/v1/remedy/policy", string(body), &got); code != 200 {
		t.Fatalf("put policy: %d", code)
	}
	if got.CooldownUs != 777 || len(got.Rules) != 1 {
		t.Fatalf("policy after PUT: %+v", got)
	}
	if ctrl.Policy().CooldownUs != 777 {
		t.Fatalf("controller policy not swapped: %+v", ctrl.Policy())
	}
	if code := putJSON(t, ts.URL+"/api/v1/remedy/policy",
		`{"rules":[{"class":"link-fail","actions":["warp-drive"]}]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad action accepted: %d", code)
	}
	if code := putJSON(t, ts.URL+"/api/v1/remedy/policy", "{not json", nil); code != http.StatusBadRequest {
		t.Fatalf("bad JSON accepted: %d", code)
	}
}

// TestFleetRemedyEndpoints: the fleet surface aggregates per-host
// controllers and policy updates fan out to all of them.
func TestFleetRemedyEndpoints(t *testing.T) {
	s, ts := newFleetServer(t)
	fc, err := remedy.NewFleet(s.Fleet(), nil, remedy.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	s.SetRemedy(fc)

	var st api.FleetRemedyStatus
	if code := getJSON(t, ts.URL+"/api/v1/fleet/remedy/status", &st); code != 200 {
		t.Fatalf("fleet remedy status: %d", code)
	}
	if !st.Enabled || len(st.Hosts) != 2 {
		t.Fatalf("fleet remedy status: %+v", st)
	}
	pol := remedy.DefaultPolicy()
	pol.HysteresisSteps = 5
	body, _ := json.Marshal(pol)
	var got remedy.Policy
	if code := putJSON(t, ts.URL+"/api/v1/fleet/remedy/policy", string(body), &got); code != 200 {
		t.Fatalf("fleet put policy: %d", code)
	}
	if got.HysteresisSteps != 5 {
		t.Fatalf("fleet policy after PUT: %+v", got)
	}
	for _, name := range fc.Hosts() {
		if fc.Controller(name).Policy().HysteresisSteps != 5 {
			t.Fatalf("host %s policy not fanned out", name)
		}
	}
	var buf bytes.Buffer
	buf.WriteString(`{"rules":[]}`)
	if code := putJSON(t, ts.URL+"/api/v1/fleet/remedy/policy", buf.String(), nil); code != http.StatusBadRequest {
		t.Fatalf("empty rule table accepted: %d", code)
	}
}
