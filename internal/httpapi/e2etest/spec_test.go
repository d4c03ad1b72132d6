package e2etest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The spec layer: request/response conformance cases live in
// testdata/*.json as data, not code, so adding a surface check is an
// edit to a table. Each spec file is one daemon configuration (its
// flags are in the spec) plus an ordered request list; requests run
// sequentially against one daemon, so earlier mutations set up later
// assertions. "${TOKEN}" in a header value is replaced by the bearer
// token of the daemon under test.
//
// Every spec runs in both boot modes: a single-host daemon, and a
// fleet of the repository's hosts/ specs. In fleet mode a request's /api/v1/X path
// becomes /api/v1/fleet/hosts/<first host>/X — the same host-table
// route, addressed by host — unless the case names its fleet-mode path
// explicitly (fleet_path: fleet-wide routes and their one-host
// aliases).

type specFile struct {
	// Flags are extra ihnetd flags for this spec's daemon.
	Flags []string `json:"flags"`
	// Auth arms -auth-token-file with a generated token; the daemon
	// probe and any "${TOKEN}" headers use it.
	Auth     bool       `json:"auth"`
	Requests []specCase `json:"requests"`
}

type specCase struct {
	Name   string `json:"name"`
	Method string `json:"method"`
	Path   string `json:"path"` // absolute: includes /api/v1 where wanted
	// FleetPath, when set, is the path used against the fleet daemon
	// instead of the per-host rewrite of Path.
	FleetPath string            `json:"fleet_path,omitempty"`
	Body      json.RawMessage   `json:"body,omitempty"`
	Headers   map[string]string `json:"headers,omitempty"`
	// NoToken suppresses the daemon's bearer token for this request —
	// the unauthenticated probe against an authed daemon.
	NoToken    bool `json:"no_token,omitempty"`
	WantStatus int  `json:"want_status"`
	// WantCode asserts the typed envelope code on non-2xx responses.
	WantCode string `json:"want_code,omitempty"`
	// WantKeys asserts top-level keys present in a JSON object reply.
	WantKeys []string `json:"want_keys,omitempty"`
	// WantHeader asserts response headers are present (value substring
	// match; empty string means present at all).
	WantHeader map[string]string `json:"want_header,omitempty"`
}

func TestSpecs(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs under testdata/ (err %v)", err)
	}
	for _, path := range specs {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			t.Run("one-host", func(t *testing.T) { runSpec(t, path, false) })
			t.Run("fleet", func(t *testing.T) { runSpec(t, path, true) })
		})
	}
}

func runSpec(t *testing.T, path string, fleetMode bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	token := ""
	flags := append([]string{"-autoadvance=0"}, spec.Flags...)
	if fleetMode {
		flags = append(flags, "-hosts-dir", filepath.Join("..", "..", "..", "hosts"))
	}
	if spec.Auth {
		token = "spec-harness-token"
		tf := filepath.Join(t.TempDir(), "token")
		if err := os.WriteFile(tf, []byte(token+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		flags = append(flags, "-auth-token-file", tf, "-auth-loopback=false")
	}
	d := startDaemon(t, token, flags...)
	hostPrefix := ""
	if fleetMode {
		var hosts []struct {
			Name string `json:"name"`
		}
		d.call(http.MethodGet, "/fleet/hosts", nil, &hosts, http.StatusOK)
		hostPrefix = "/api/v1/fleet/hosts/" + hosts[0].Name
	}

	for i, c := range spec.Requests {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("%02d %s %s", i, c.Method, c.Path)
		}
		saved := d.token
		if c.NoToken {
			d.token = ""
		}
		headers := make(map[string]string, len(c.Headers))
		for k, v := range c.Headers {
			headers[k] = strings.ReplaceAll(v, "${TOKEN}", token)
		}
		reqPath := c.Path
		if fleetMode {
			if c.FleetPath != "" {
				reqPath = c.FleetPath
			} else if rest, ok := strings.CutPrefix(c.Path, "/api/v1"); ok {
				reqPath = hostPrefix + rest
			}
		}
		resp, err := d.do(c.Method, reqPath, c.Body, headers)
		d.token = saved
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read body: %v", name, err)
		}
		if resp.StatusCode != c.WantStatus {
			t.Fatalf("%s: status %d, want %d (body %s)", name, resp.StatusCode, c.WantStatus, body)
		}
		for k, sub := range c.WantHeader {
			got := resp.Header.Get(k)
			if got == "" || !strings.Contains(got, sub) {
				t.Fatalf("%s: header %s = %q, want containing %q", name, k, got, sub)
			}
		}
		if c.WantCode != "" {
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != c.WantCode {
				t.Fatalf("%s: envelope code %q (err %v), want %q (body %s)",
					name, env.Error.Code, err, c.WantCode, body)
			}
		}
		if len(c.WantKeys) > 0 {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(body, &obj); err != nil {
				t.Fatalf("%s: not a JSON object: %v (body %s)", name, err, body)
			}
			for _, k := range c.WantKeys {
				if _, ok := obj[k]; !ok {
					t.Fatalf("%s: response missing key %q (body %s)", name, k, body)
				}
			}
		}
	}
}
