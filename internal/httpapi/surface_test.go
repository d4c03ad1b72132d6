package httpapi

// Tests for the production-surface sweep: bearer-token auth, the
// mux-level body caps with their 413 envelope, process-unique request
// IDs, and strict time-cursor parsing on the telemetry and SSE
// surfaces.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// envelopeCode fetches the typed error code of a non-2xx response and
// closes the body.
func envelopeCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("response is not the typed envelope: %v", err)
	}
	return body.Error.Code
}

func TestAuthTokenRequired(t *testing.T) {
	s, _ := newServer(t)
	reg := obs.NewRegistry()
	// httptest clients arrive over loopback; TrustLoopback=false makes
	// those connections exercise the real denial path.
	ts := httptest.NewServer(Auth(s.Handler(), AuthConfig{
		Token: "sekrit", TrustLoopback: false, Registry: reg,
	}))
	t.Cleanup(ts.Close)

	get := func(set func(*http.Request)) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/topology", nil)
		if err != nil {
			t.Fatal(err)
		}
		if set != nil {
			set(req)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// No token: 401 in the typed envelope, with the challenge header.
	resp := get(nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Fatalf("WWW-Authenticate %q", got)
	}
	if code := envelopeCode(t, resp); code != api.CodeUnauthorized {
		t.Fatalf("envelope code %q, want %q", code, api.CodeUnauthorized)
	}

	// Wrong token: denied, constant-time comparison notwithstanding.
	resp = get(func(r *http.Request) { r.Header.Set("Authorization", "Bearer wrong") })
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// The unversioned operational surface is covered too.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("/metrics without token: status %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// Correct token via Authorization and via X-API-Token.
	resp = get(func(r *http.Request) { r.Header.Set("Authorization", "Bearer sekrit") })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer token: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp = get(func(r *http.Request) { r.Header.Set("X-API-Token", "sekrit") })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Token: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	denied := reg.Counter("ihnet_http_auth_denied_total", "").Value()
	allowed := reg.Counter("ihnet_http_auth_ok_total", "").Value()
	if denied != 3 || allowed != 2 {
		t.Fatalf("counters: denied=%d allowed=%d, want 3/2", denied, allowed)
	}
}

func TestAuthLoopbackExemption(t *testing.T) {
	s, _ := newServer(t)
	ts := httptest.NewServer(Auth(s.Handler(), AuthConfig{
		Token: "sekrit", TrustLoopback: true,
	}))
	t.Cleanup(ts.Close)
	// The httptest client connects via 127.0.0.1, so with the exemption
	// on, no token is needed.
	resp, err := http.Get(ts.URL + "/api/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loopback without token: status %d, want 200", resp.StatusCode)
	}
}

func TestAuthDisabledWithEmptyToken(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTeapot) })
	h := Auth(next, AuthConfig{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("empty token must disable the middleware, got %d", rec.Code)
	}
}

func TestBodyCapReturns413Envelope(t *testing.T) {
	_, ts := newServer(t)
	// Legal JSON padding one byte past the default cap: the handler's
	// decode reads through it, hits the MaxBytesReader, and writeErr
	// rewrites the failure to a 413.
	big := append(bytes.Repeat([]byte(" "), DefaultBodyCap+1), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != api.CodePayloadTooLarge {
		t.Fatalf("envelope code %q, want %q", code, api.CodePayloadTooLarge)
	}
}

func TestRestoreAcceptsLargerBodies(t *testing.T) {
	_, ts := newServer(t)
	// 2 MB of leading whitespace (legal JSON padding) followed by an
	// empty document: far over the default cap, well under the restore
	// cap — so the failure must be the snapshot validation (400), never
	// the body limit (413).
	body := append(bytes.Repeat([]byte(" "), 2<<20), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/api/v1/restore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2MB restore body: status %d, want 400 (not a body-cap 413)", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != api.CodeBadRequest {
		t.Fatalf("envelope code %q, want %q", code, api.CodeBadRequest)
	}
}

// TestRequestIDsUniqueAcrossConcurrentMuxes pins the request-ID fix:
// IDs come from one process-scoped counter, so two AccessLog instances
// hammered concurrently never mint the same ID (the old
// time.Now()-masked scheme collided within a burst).
func TestRequestIDsUniqueAcrossConcurrentMuxes(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	tsA := httptest.NewServer(AccessLog(ok, nil))
	tsB := httptest.NewServer(AccessLog(ok, nil))
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)

	var mu sync.Mutex
	seen := make(map[string]bool)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		for _, u := range []string{tsA.URL, tsB.URL} {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				id := resp.Header.Get("X-Request-ID")
				mu.Lock()
				defer mu.Unlock()
				if id == "" {
					t.Error("no X-Request-ID minted")
					return
				}
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
			}(u)
		}
	}
	wg.Wait()
}

func TestTelemetrySinceNsRejectsNegative(t *testing.T) {
	_, ts := newServer(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?since_ns=-5", http.StatusBadRequest},
		{"?since_ns=abc", http.StatusBadRequest},
		{"?since_ns=0", http.StatusOK},
		{"", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + "/api/v1/telemetry" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("telemetry%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusBadRequest {
			if code := envelopeCode(t, resp); code != api.CodeBadRequest {
				t.Fatalf("telemetry%s: envelope code %q", tc.query, code)
			}
		} else {
			resp.Body.Close()
		}
	}
}

func TestEventStreamRejectsNegativeResume(t *testing.T) {
	_, ts := newServer(t)
	// Same cursor contract as since_ns: a negative (or junk) resume
	// point is a 400, not silently "live only".
	for _, q := range []string{"?since=-5", "?since=junk"} {
		resp, err := http.Get(ts.URL + "/api/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("events%s: status %d, want 400", q, resp.StatusCode)
		}
		if code := envelopeCode(t, resp); code != api.CodeBadRequest {
			t.Fatalf("events%s: envelope code %q", q, code)
		}
	}
}
