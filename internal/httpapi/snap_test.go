package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/snap"
)

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// TestSnapshotRestoreOverHTTP drives the full operator story: admit,
// advance, checkpoint, keep going, then roll back to the checkpoint
// and confirm the server is serving the earlier state.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	_, ts := newServer(t)

	if code := postJSON(t, ts.URL+"/api/v1/tenants",
		`{"tenant":"kv","targets":[{"src":"nic0","dst":"socket0.dimm0_0","rate_gbps":40}]}`, nil); code != 201 {
		t.Fatalf("admit status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":500}`, nil); code != 200 {
		t.Fatalf("advance status %d", code)
	}

	resp, err := http.Post(ts.URL+"/api/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, snapBytes)
	}
	p, err := snap.ReadSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("snapshot does not verify: %v", err)
	}
	checkpointNs := p.VirtualTimeNs

	// Move past the checkpoint, then restore back to it.
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":700}`, nil); code != 200 {
		t.Fatal("advance failed")
	}
	var restored struct {
		Restored      bool   `json:"restored"`
		VirtualTimeNs int64  `json:"virtual_time_ns"`
		StateHash     string `json:"state_hash"`
	}
	resp, err = http.Post(ts.URL+"/api/v1/restore", "application/json", bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !restored.Restored {
		t.Fatalf("restore failed: status %d %+v", resp.StatusCode, restored)
	}
	if restored.VirtualTimeNs != checkpointNs {
		t.Fatalf("restored to t=%d, checkpoint was t=%d", restored.VirtualTimeNs, checkpointNs)
	}
	if restored.StateHash != p.StateHash {
		t.Fatalf("restored hash %s != snapshot hash %s", restored.StateHash, p.StateHash)
	}

	// The restored session serves reads and keeps journaling.
	var tenants []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tenants", &tenants); code != 200 || len(tenants) != 1 || tenants[0].ID != "kv" {
		t.Fatalf("tenants after restore: %+v", tenants)
	}
	var j snap.Journal
	if code := getJSON(t, ts.URL+"/api/v1/journal", &j); code != 200 {
		t.Fatal("journal fetch failed")
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("served journal invalid: %v", err)
	}
	if j.Len() == 0 {
		t.Fatal("served journal empty")
	}
}

// TestRestoreRejectsCorruption: a tampered snapshot must leave the
// live session untouched.
func TestRestoreRejectsCorruption(t *testing.T) {
	srv, ts := newServer(t)
	if code := postJSON(t, ts.URL+"/api/v1/advance", `{"micros":100}`, nil); code != 200 {
		t.Fatal("advance failed")
	}
	before := snap.StateHash(srv.only.Mgr)

	resp, err := http.Post(ts.URL+"/api/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Corrupt the recorded checksum (still valid JSON, wrong digest).
	bad := bytes.Replace(snapBytes, []byte(`"checksum_sha256": "`), []byte(`"checksum_sha256": "0`), 1)
	if bytes.Equal(bad, snapBytes) {
		t.Fatal("checksum field not found in snapshot")
	}

	resp, err = http.Post(ts.URL+"/api/v1/restore", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupted restore returned %d", resp.StatusCode)
	}
	if got := snap.StateHash(srv.only.Mgr); got != before {
		t.Fatal("failed restore mutated the live session")
	}
}

// TestServerRejectsSessionlessHost: a server needs at least one host,
// and every fleet host records (fleet.AddSession refuses a nil
// session), so no handler carries a sessionless path.
func TestServerRejectsSessionlessHost(t *testing.T) {
	if _, err := New(fleet.New(), fleet.ShardConfig{}); err == nil {
		t.Fatal("server accepted an empty fleet")
	}
}

// TestJournaledDiagProbe: diagnostics through a session server land in
// the journal (they advance time and inject traffic).
func TestJournaledDiagProbe(t *testing.T) {
	_, ts := newServer(t)
	if code := getJSON(t, ts.URL+"/api/v1/diag/ping?src=gpu0&dst=socket0.dimm0_0", nil); code != 200 {
		t.Fatalf("ping status %d", code)
	}
	var j snap.Journal
	if code := getJSON(t, ts.URL+"/api/v1/journal", &j); code != 200 {
		t.Fatal("journal fetch failed")
	}
	found := false
	for _, e := range j.Entries {
		if e.Kind == snap.KindPing {
			found = true
		}
	}
	if !found {
		t.Fatalf("ping not journaled: %+v", j.Entries)
	}
}
