package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/remedy"
	"repro/internal/snap"
)

// serveFleet boots a recording two-socket host per name behind the
// control plane, remediation armed, and returns the daemon's URL.
func serveFleet(t *testing.T, names ...string) string {
	t.Helper()
	f := fleet.New()
	for i, name := range names {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddSession(name, sess); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := httpapi.New(f, fleet.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := remedy.NewFleet(f, srv.Runner(), remedy.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	srv.SetRemedy(fc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestVerbsBothBootModes runs every ihctl verb, in order, against a
// one-host daemon and a two-host daemon. The fleet-wide verbs work in
// both modes; the verbs on the daemon's only host need the one-host
// aliases and get the 404 envelope from a two-host daemon; the retired
// fleet-* twins are unknown everywhere. "{host}" and "{other}" in args
// name the first and last host.
func TestVerbsBothBootModes(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	if err := os.WriteFile(file("ops.json"), []byte(`{"ops":[
		{"op":"admit","tenant":"b1","targets":[{"src":"gpu0","dst":"socket0.dimm0_0","rate_gbps":2}]},
		{"op":"set-cap","link":"pcieswitch0->nic0","tenant":"b1","cap_bps":1e9}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file("policy.json"), []byte(`{"rules":[{"class":"*","actions":["rollback"]}],"cooldown_us":100,"hysteresis_steps":1,"max_actions_per_incident":2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	const both, oneHost, neither = 3, 1, 0
	cases := []struct {
		args string
		ok   int // bitmask: 1 = one-host daemon, 2 = two-host daemon
		want string
	}{
		{"topology", oneHost, "components"},
		{"report", oneHost, "virtual time"},
		{"alerts", oneHost, ""},
		{"detections", oneHost, ""},
		{"admit kv nic0 memory:socket0 8", oneHost, `"tenant": "kv"`},
		{"place ml nic0 memory:socket0 4", both, `"tenant": "ml"`},
		{"tenants", oneHost, `"ml"`},
		// Snapshot before verify: a verify probe advances virtual time
		// without journaling it, so a later snapshot fails its replay
		// check (a known defect, on the roadmap).
		{"snapshot " + file("snap.json"), oneHost, "wrote snapshot"},
		{"restore " + file("snap.json"), oneHost, `"restored": true`},
		{"verify ml", oneHost, "promised_bps"},
		{"usage ml", oneHost, "allocated_bps"},
		{"ping gpu0 nic0", oneHost, "avg_ns"},
		{"trace gpu0 socket0.dimm0_0", oneHost, "hops"},
		{"perf gpu0 nic1", oneHost, "achieved_bps"},
		{"advance 500", both, "hosts_advanced"},
		{"batch -f " + file("ops.json"), oneHost, "1 solver settle"},
		{"solver", both, "fleet: components"},
		{"experiment e1", both, "E1"},
		{"journal", oneHost, "entries"},
		{"journal " + file("journal.json"), oneHost, "wrote journal"},
		{"state-hash", both, "fleet_hash"},
		{"health", both, "status: ok"},
		{"remedy status", both, "{host}"},
		{"remedy policy", both, "rules"},
		{"remedy policy " + file("policy.json"), both, "rollback"},
		{"fleet-rollup", both, "counters"},
		{"fleet-shards", both, "shard   0"},
		{"hosts", both, "{host}"},
		{"fleet-report", both, "tenants"},
		{"migrate ml {other}", 2, `"host": "{other}"`},
		{"rebalance", both, "moved"},
		{"host-snapshot {host} " + file("host.json"), both, "wrote snapshot"},
		{"host-journal {host}", both, "entries"},
		{"evict ml", both, `"evicted": "ml"`},
		{"watch", both, ""},
		{"fleet-advance 100", neither, ""},
		{"fleet-state-hash", neither, ""},
		{"fleet-solver", neither, ""},
		{"fleet-remedy status", neither, ""},
		{"fleet-watch", neither, ""},
		{"fleet watch", neither, ""},
		{"fleet-evict ml", neither, ""},
	}
	for mode, hosts := range map[int][]string{1: {"two-socket"}, 2: {"box-a", "box-b"}} {
		base := serveFleet(t, hosts...)
		api := apiclient.New(base)
		name := fmt.Sprintf("%d-host", len(hosts))
		for _, tc := range cases {
			args := strings.ReplaceAll(tc.args, "{host}", hosts[0])
			args = strings.ReplaceAll(args, "{other}", hosts[len(hosts)-1])
			want := strings.ReplaceAll(tc.want, "{host}", hosts[0])
			want = strings.ReplaceAll(want, "{other}", hosts[len(hosts)-1])
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if strings.HasPrefix(args, "watch") {
				// A tail runs until interrupted; interrupt it shortly.
				cancel()
				ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
			}
			var out bytes.Buffer
			err := command{api: api, ctx: ctx, out: &out}.dispatch(strings.Fields(args))
			cancel()
			if ok := tc.ok&mode != 0; ok != (err == nil) {
				t.Errorf("%s: ihctl %s: err = %v, want success %v\n%s", name, args, err, ok, out.String())
				continue
			}
			if err == nil && !strings.Contains(out.String(), want) {
				t.Errorf("%s: ihctl %s: output lacks %q:\n%s", name, args, want, out.String())
			}
		}
	}
}
