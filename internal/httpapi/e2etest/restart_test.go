package e2etest

import (
	"net/http"
	"os"
	"strconv"
	"testing"
)

// TestKillRestartSingleHost is the core durability e2e: a real daemon
// with -store-dir is driven over HTTP (admissions, advances, one
// persisted checkpoint, then more commands so the WAL tail extends
// past the checkpoint — the "mid-epoch" state), SIGKILLed without any
// shutdown hook, and restarted from the same store. The restarted
// daemon must report a byte-identical state hash, an identical
// journal, and stay fully usable.
func TestKillRestartSingleHost(t *testing.T) {
	storeDir := t.TempDir()
	args := []string{"-autoadvance=0", "-preset", "two-socket", "-store-dir", storeDir}
	d := startDaemon(t, "", args...)

	d.call(http.MethodPost, "/tenants", admitBody("kv", 80), nil, http.StatusCreated)
	d.call(http.MethodPost, "/advance", map[string]any{"micros": 500}, nil, http.StatusOK)
	// Persist a checkpoint, then keep mutating: recovery must splice
	// snapshot + WAL tail, not just reload the snapshot.
	d.call(http.MethodPost, "/snapshot", nil, nil, http.StatusOK)
	d.call(http.MethodPost, "/tenants", admitBody("analytics", 20), nil, http.StatusCreated)
	d.call(http.MethodPost, "/advance", map[string]any{"micros": 700}, nil, http.StatusOK)

	before := d.stateHash("/state/hash")
	var journalBefore []byte
	d.call(http.MethodGet, "/journal", nil, &rawBody{&journalBefore}, http.StatusOK)

	d.kill()

	d2 := startDaemon(t, "", args...)
	after := d2.stateHash("/state/hash")
	if before["state_hash"] != after["state_hash"] {
		t.Fatalf("state hash diverged across kill/restart:\n before %v\n after  %v", before, after)
	}
	if before["virtual_time_ns"] != after["virtual_time_ns"] {
		t.Fatalf("virtual time diverged: before %v, after %v", before["virtual_time_ns"], after["virtual_time_ns"])
	}
	if before["journal_entries"] != after["journal_entries"] {
		t.Fatalf("journal length diverged: before %v, after %v", before["journal_entries"], after["journal_entries"])
	}
	var journalAfter []byte
	d2.call(http.MethodGet, "/journal", nil, &rawBody{&journalAfter}, http.StatusOK)
	if string(journalBefore) != string(journalAfter) {
		t.Fatalf("journal bytes diverged across kill/restart (%d vs %d bytes)", len(journalBefore), len(journalAfter))
	}

	// The recovered daemon keeps working and keeps journaling.
	d2.call(http.MethodPost, "/tenants", admitBody("late", 10), nil, http.StatusCreated)
	d2.call(http.MethodPost, "/advance", map[string]any{"micros": 100}, nil, http.StatusOK)
	final := d2.stateHash("/state/hash")
	if final["state_hash"] == after["state_hash"] {
		t.Fatalf("post-recovery commands did not change the state hash")
	}
}

// TestKillRestartFleet kills a sharded synthetic fleet daemon mid-run
// and asserts the fleet-wide fingerprint (every host's hash folded in
// name order) and a host's journal survive the restart
// byte-identically. 8 hosts by default; IHNET_STORE_SMOKE=1 runs the
// 1024-host version CI exercises via `make store-smoke`.
func TestKillRestartFleet(t *testing.T) {
	hosts := 8
	if os.Getenv("IHNET_STORE_SMOKE") != "" {
		hosts = 1024
	}
	storeDir := t.TempDir()
	args := []string{
		"-autoadvance=0", "-synth-hosts", strconv.Itoa(hosts),
		"-preset", "two-socket", "-store-dir", storeDir,
	}
	d := startDaemon(t, "", args...)

	d.call(http.MethodPost, "/fleet/advance", map[string]any{"micros": 300}, nil, http.StatusOK)
	d.call(http.MethodPost, "/fleet/tenants", admitBody("e2e-fleet", 8), nil, http.StatusCreated)
	d.call(http.MethodPost, "/fleet/advance", map[string]any{"micros": 200}, nil, http.StatusOK)

	before := d.stateHash("/fleet/state/hash")
	// Per-host routes serve the fleet too: one host's journal must also
	// come back byte-identical.
	const probe = "/fleet/hosts/synth-00000/journal"
	var journalBefore []byte
	d.call(http.MethodGet, probe, nil, &rawBody{&journalBefore}, http.StatusOK)
	d.kill()

	d2 := startDaemon(t, "", args...)
	after := d2.stateHash("/fleet/state/hash")
	var journalAfter []byte
	d2.call(http.MethodGet, probe, nil, &rawBody{&journalAfter}, http.StatusOK)
	if string(journalBefore) != string(journalAfter) {
		t.Fatalf("host journal bytes diverged across kill/restart (%d vs %d bytes)", len(journalBefore), len(journalAfter))
	}
	if before["fleet_hash"] != after["fleet_hash"] {
		// Narrow the report to the first divergent host.
		bh, _ := before["host_hashes"].(map[string]any)
		ah, _ := after["host_hashes"].(map[string]any)
		for name, h := range bh {
			if ah[name] != h {
				t.Errorf("host %s: hash %v -> %v", name, h, ah[name])
				break
			}
		}
		t.Fatalf("fleet hash diverged across kill/restart: %v -> %v", before["fleet_hash"], after["fleet_hash"])
	}
	if before["hosts"] != after["hosts"] {
		t.Fatalf("host count diverged: %v -> %v", before["hosts"], after["hosts"])
	}

	// The recovered fleet still places and advances.
	d2.call(http.MethodPost, "/fleet/tenants", admitBody("late", 4), nil, http.StatusCreated)
	d2.call(http.MethodPost, "/fleet/advance", map[string]any{"micros": 100}, nil, http.StatusOK)
}

// rawBody lets daemon.call capture a response verbatim instead of
// JSON-decoding it.
type rawBody struct{ dst *[]byte }

func (r *rawBody) UnmarshalJSON(data []byte) error {
	*r.dst = append([]byte(nil), data...)
	return nil
}
