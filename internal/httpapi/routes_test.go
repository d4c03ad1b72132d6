package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestAllRoutesVersioned walks the mounted route tables of a one-host
// and a two-host server and asserts the v1 invariants: every JSON
// endpoint mounts under /api/v1/, patterns are well-formed, no
// method+path pair is registered twice, and the one-host aliases
// exist exactly when the fleet has one host.
func TestAllRoutesVersioned(t *testing.T) {
	one, _ := newServer(t)
	two, _ := newFleetServer(t)
	for name, s := range map[string]*Server{"one-host": one, "two-host": two} {
		routes := s.apiRoutes()
		seen := make(map[string]bool)
		for _, rt := range routes {
			if !strings.HasPrefix(rt.Path(), api.Prefix+"/") {
				t.Errorf("%s: route %s %s escapes the version prefix", name, rt.Method, rt.Path())
			}
			if !strings.HasPrefix(rt.Pattern, "/") || strings.HasSuffix(rt.Pattern, "/") {
				t.Errorf("%s: malformed pattern %q", name, rt.Pattern)
			}
			key := rt.Method + " " + rt.Pattern
			if seen[key] {
				t.Errorf("%s: duplicate route %s", name, key)
			}
			seen[key] = true
			if rt.Handler == nil {
				t.Errorf("%s: route %s has no handler", name, key)
			}
		}
		for _, hr := range s.hostRoutes() {
			if !seen[hr.Method+" "+hostPrefix+hr.Pattern] {
				t.Errorf("%s: host route %s %s not mounted under %s", name, hr.Method, hr.Pattern, hostPrefix)
			}
			if alias := seen[hr.Method+" "+hr.Pattern]; alias != (s == one) {
				t.Errorf("%s: alias %s %s mounted=%v", name, hr.Method, hr.Pattern, alias)
			}
		}
		if alias := seen["POST /advance"]; alias != (s == one) {
			t.Errorf("%s: advance alias mounted=%v", name, alias)
		}
	}
}

// TestLegacyPathIs404: the pre-v1 /api/... surface is gone; its paths
// get the envelope 404 like any other unknown endpoint.
func TestLegacyPathIs404(t *testing.T) {
	_, ts := newServer(t)
	resp, err := http.Get(ts.URL + "/api/topology")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy /api/topology: status %d, want 404", resp.StatusCode)
	}
	if detail := decodeEnvelope(t, resp); detail.Code != api.CodeNotFound {
		t.Fatalf("legacy /api/topology: code %q, want %q", detail.Code, api.CodeNotFound)
	}
}

func decodeEnvelope(t *testing.T, resp *http.Response) api.ErrorDetail {
	t.Helper()
	defer resp.Body.Close()
	var e api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error response is not the v1 envelope: %v", err)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", e)
	}
	return e.Error
}

// TestErrorEnvelope checks that the typed envelope — and the right
// code — comes back on each error class.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newServer(t)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/api/v1/advance", `{"micros":-5}`, http.StatusBadRequest, api.CodeBadRequest},
		{"GET", "/api/v1/tenants/ghost/verify", "", http.StatusNotFound, api.CodeNotFound},
		{"DELETE", "/api/v1/tenants/ghost", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/api/v1/fleet/hosts/nope/report", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/api/v1/no-such-endpoint", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/definitely-not-api", "", http.StatusNotFound, api.CodeNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if detail := decodeEnvelope(t, resp); detail.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, detail.Code, tc.code)
		}
	}
}

// TestCanceledRequestGets499 drives the handler directly with an
// already-canceled context: the lock wrapper must answer with the 499
// envelope instead of running the handler.
func TestCanceledRequestGets499(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/api/v1/report", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != api.CodeCanceled {
		t.Fatalf("body %q, want canceled envelope", rec.Body.String())
	}
}

// TestREADMERouteTables parses the README's two v1 route tables and
// requires one row per route and exactly the routes of hostRoutes()
// and fleetRoutes(), so a new route fails the build until it is
// documented.
func TestREADMERouteTables(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### v1 API\n")
	if !ok {
		t.Fatal("README has no v1 API section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("^\\| `(GET|POST|PUT|DELETE) (/[^` ]*)` \\|")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("README route row is not one route: %s", line)
			continue
		}
		documented[m[1]+" "+m[2]] = true
	}
	s, _ := newServer(t) // one host: the fleet table includes its alias
	want := map[string]bool{}
	for _, rt := range s.hostRoutes() {
		want[rt.Method+" "+rt.Pattern] = true
	}
	for _, rt := range s.fleetRoutes() {
		want[rt.Method+" "+rt.Path()] = true
	}
	for key := range want {
		if !documented[key] {
			t.Errorf("route %s is missing from the README's v1 API tables", key)
		}
	}
	for key := range documented {
		if !want[key] {
			t.Errorf("README documents %s, which no route table serves", key)
		}
	}
}
