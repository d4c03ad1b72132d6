package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

type batchResponse struct {
	Results       []batchResultDTO `json:"results"`
	SolverSettles uint64           `json:"solver_settles"`
}

// TestBatchEndpointOneSettle drives the headline contract over HTTP: a
// multi-op envelope lands as one solver settle, and the solver
// introspection endpoint reflects the batch.
func TestBatchEndpointOneSettle(t *testing.T) {
	_, ts := newServer(t)
	var out batchResponse
	code := postJSON(t, ts.URL+"/api/v1/batch", `{"ops":[
		{"op":"admit","tenant":"kv","targets":[{"src":"nic0","dst":"socket0.dimm0_0","rate_gbps":20}]},
		{"op":"admit","tenant":"ml","targets":[{"src":"gpu0","dst":"socket0.dimm0_0","rate_gbps":10}]},
		{"op":"set-cap","link":"pcieswitch0->nic0","tenant":"kv","cap_bps":5e9},
		{"op":"workload","workload":"scan","tenant":"scan"}
	]}`, &out)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Status != "ok" {
			t.Fatalf("op %d (%s): status %q (%s)", i, r.Op, r.Status, r.Error)
		}
	}
	if out.SolverSettles != 1 {
		t.Fatalf("batch settled the solver %d times, want exactly 1", out.SolverSettles)
	}

	var stats struct {
		Components int    `json:"components"`
		Flows      int    `json:"flows"`
		Batches    uint64 `json:"batches"`
		Mutations  uint64 `json:"mutations"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fabric/solver", &stats); code != http.StatusOK {
		t.Fatalf("solver stats status %d", code)
	}
	if stats.Flows == 0 || stats.Components == 0 {
		t.Fatalf("solver stats missing live shape: %+v", stats)
	}
	if stats.Batches == 0 || stats.Mutations == 0 {
		t.Fatalf("solver stats missing batch accounting: %+v", stats)
	}
}

// TestBatchEndpointMigrate checks the migrate op: evict + re-admit as
// one request op, folded into one result.
func TestBatchEndpointMigrate(t *testing.T) {
	_, ts := newServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"socket0.dimm0_0","rate_gbps":40}]}`, nil); code != http.StatusCreated {
		t.Fatalf("admit status %d", code)
	}
	var out batchResponse
	code := postJSON(t, ts.URL+"/api/v1/batch", `{"ops":[
		{"op":"migrate","tenant":"kv","targets":[{"src":"nic0","dst":"socket1.dimm1_0","rate_gbps":20}]}
	]}`, &out)
	if code != http.StatusOK {
		t.Fatalf("migrate batch status %d: %+v", code, out)
	}
	if len(out.Results) != 1 || out.Results[0].Status != "ok" {
		t.Fatalf("migrate results %+v", out.Results)
	}
	if out.SolverSettles != 1 {
		t.Fatalf("migrate settled the solver %d times, want 1", out.SolverSettles)
	}
	var tenants []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants", &tenants); code != http.StatusOK {
		t.Fatalf("tenants status %d", code)
	}
	if len(tenants) != 1 || tenants[0].ID != "kv" {
		t.Fatalf("after migrate, tenants = %+v", tenants)
	}
}

// TestBatchEndpointPartialFailure checks the 409 contract: the typed
// envelope carries the per-op result array in details.
func TestBatchEndpointPartialFailure(t *testing.T) {
	_, ts := newServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/batch", "application/json", strings.NewReader(`{"ops":[
		{"op":"admit","tenant":"kv","targets":[{"src":"nic0","dst":"socket0.dimm0_0","rate_gbps":20}]},
		{"op":"evict","tenant":"ghost"},
		{"op":"fail","link":"pcieswitch0->nic0"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("partial batch status %d, want 409", resp.StatusCode)
	}
	detail := decodeEnvelope(t, resp)
	if detail.Code != CodeConflict {
		t.Fatalf("envelope code %q", detail.Code)
	}
	raw, err := json.Marshal(detail.Details)
	if err != nil {
		t.Fatal(err)
	}
	var body batchResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("envelope details are not the batch result body: %v", err)
	}
	want := []string{"ok", "failed", "skipped"}
	for i, r := range body.Results {
		if r.Status != want[i] {
			t.Fatalf("op %d: status %q, want %q", i, r.Status, want[i])
		}
	}
}

// TestBatchEndpointValidation checks the 400 paths: unknown op, empty
// envelope, malformed JSON.
func TestBatchEndpointValidation(t *testing.T) {
	_, ts := newServer(t)
	for _, body := range []string{
		`{"ops":[{"op":"reboot"}]}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"set-cap","link":"l","tenant":"kv","cap_bps":-5}]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
		decodeEnvelope(t, resp)
	}
}

// TestFleetSolverRollup checks the fleet roll-up endpoint aggregates
// per-host solver stats.
func TestFleetSolverRollup(t *testing.T) {
	_, ts := newFleetServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/fleet/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`, nil); code != http.StatusCreated {
		t.Fatalf("place status %d", code)
	}
	var out struct {
		Hosts map[string]struct {
			Flows int `json:"flows"`
		} `json:"hosts"`
		Totals struct {
			Flows     int    `json:"flows"`
			Mutations uint64 `json:"mutations"`
		} `json:"totals"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/fleet/fabric/solver", &out); code != http.StatusOK {
		t.Fatalf("fleet solver status %d", code)
	}
	if len(out.Hosts) != 2 {
		t.Fatalf("roll-up covers %d hosts, want 2", len(out.Hosts))
	}
	sum := 0
	for _, h := range out.Hosts {
		sum += h.Flows
	}
	if out.Totals.Flows != sum || out.Totals.Mutations == 0 {
		t.Fatalf("totals %+v do not aggregate hosts (flow sum %d)", out.Totals, sum)
	}
}
