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

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// serveFleet boots a recording two-socket host per name behind the
// control plane, remediation armed, and returns the server and the
// daemon's URL.
func serveFleet(t *testing.T, names ...string) (*httpapi.Server, string) {
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
	return srv, ts.URL
}

// ihctl runs one command line against the daemon at base; a leading
// "-host <name>" sets the -host flag.
func ihctl(ctx context.Context, base, args string) (string, error) {
	var out bytes.Buffer
	c := command{api: api.New(base), ctx: ctx, out: &out}
	fields := strings.Fields(args)
	if len(fields) > 1 && fields[0] == "-host" {
		c.host, fields = fields[1], fields[2:]
	}
	err := c.dispatch(fields)
	return out.String(), err
}

// TestVerbsBothBootModes runs every ihctl verb, in order, against a
// one-host daemon and a two-host daemon. The fleet-wide verbs work in
// both modes. The per-host verbs ("{h}" in args) run on the one-host
// aliases against the one-host daemon and with "-host {host}" against
// the two-host daemon; without -host they get the 404 envelope from a
// two-host daemon. Retired verbs are unknown everywhere. "{host}" and
// "{other}" in args name the first and last host; "{host-}" in a
// wanted output is "{host}-" with -host and empty without.
func TestVerbsBothBootModes(t *testing.T) {
	dir := t.TempDir()
	// The snapshot verb's default file lands in the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
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
		{"{h} topology", both, "components"},
		{"topology", oneHost, "components"},
		{"{h} report", both, "virtual time"},
		{"{h} alerts", both, ""},
		{"{h} detections", both, ""},
		{"{h} admit kv nic0 memory:socket0 8", both, `"tenant": "kv"`},
		{"place ml nic0 memory:socket0 4", both, `"tenant": "ml"`},
		{"{h} tenants", both, `"kv"`},
		{"-host {host} tenants", both, `"kv"`},
		// Snapshot before verify: a verify probe advances virtual time
		// without journaling it, so a later snapshot fails its replay
		// check (a known defect, on the roadmap).
		{"{h} snapshot " + file("snap.json"), both, "wrote snapshot"},
		{"{h} restore " + file("snap.json"), both, `"restored": true`},
		{"{h} snapshot", both, "to {host-}snapshot.json"},
		{"{h} verify kv", both, "promised_bps"},
		{"{h} usage kv", both, "allocated_bps"},
		{"{h} ping gpu0 nic0", both, "avg_ns"},
		{"{h} trace gpu0 socket0.dimm0_0", both, "hops"},
		{"{h} perf gpu0 nic1", both, "achieved_bps"},
		{"advance 500", both, "hosts_advanced"},
		{"{h} batch -f " + file("ops.json"), both, "1 solver settle"},
		{"solver", both, "fleet: components"},
		{"experiment e1", both, "E1"},
		{"{h} journal", both, "entries"},
		{"{h} journal " + file("journal.json"), both, "wrote journal"},
		{"state-hash", both, "fleet_hash"},
		{"health", both, "status: ok"},
		{"remedy status", both, "{host}"},
		{"remedy policy", both, "rules"},
		{"remedy policy " + file("policy.json"), both, "rollback"},
		{"fleet-rollup", both, "counters"},
		{"fleet-shards", both, "shard   0"},
		{"hosts", both, "{host}"},
		{"fleet-report", both, "tenants"},
		{"migrate ml {host}", 2, `"host": "{host}"`},
		{"rebalance", both, "moved"},
		{"evict ml", both, `"evicted": "ml"`},
		{"watch", both, ""},
		{"host-snapshot {host}", neither, ""},
		{"host-journal {host}", neither, ""},
		{"fleet-advance 100", neither, ""},
		{"fleet-state-hash", neither, ""},
		{"fleet-solver", neither, ""},
		{"fleet-remedy status", neither, ""},
		{"fleet-watch", neither, ""},
		{"fleet watch", neither, ""},
		{"fleet-evict ml", neither, ""},
	}
	for mode, hosts := range map[int][]string{1: {"two-socket"}, 2: {"box-a", "box-b"}} {
		_, base := serveFleet(t, hosts...)
		name := fmt.Sprintf("%d-host", len(hosts))
		hostFlag, hostDash := "", ""
		if mode == 2 {
			hostFlag, hostDash = "-host "+hosts[0], hosts[0]+"-"
		}
		subst := strings.NewReplacer("{h}", hostFlag, "{host-}", hostDash,
			"{host}", hosts[0], "{other}", hosts[len(hosts)-1])
		for _, tc := range cases {
			args, want := subst.Replace(tc.args), subst.Replace(tc.want)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if strings.HasPrefix(args, "watch") {
				// A tail runs until interrupted; interrupt it shortly.
				cancel()
				ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
			}
			out, err := ihctl(ctx, base, args)
			cancel()
			if ok := tc.ok&mode != 0; ok != (err == nil) {
				t.Errorf("%s: ihctl %s: err = %v, want success %v\n%s", name, args, err, ok, out)
				continue
			}
			if err == nil && !strings.Contains(out, want) {
				t.Errorf("%s: ihctl %s: output lacks %q:\n%s", name, args, want, out)
			}
		}
	}
	if _, err := os.Stat(file("box-a-snapshot.json")); err != nil {
		t.Errorf("-host box-a snapshot: %v", err)
	}
}

// TestHealthNamesQuarantinedHost: `ihctl health` prints every field a
// subsystem reports, so a degraded runner names the host it
// quarantined.
func TestHealthNamesQuarantinedHost(t *testing.T) {
	srv, base := serveFleet(t, "box-a", "box-b")
	srv.Fleet().Host("box-b").Mgr.Engine().After(300*simtime.Microsecond, func() {
		panic(fmt.Errorf("injected fault"))
	})
	ctx := context.Background()
	if _, err := ihctl(ctx, base, "advance 2000"); err != nil {
		t.Fatal(err)
	}
	out, err := ihctl(ctx, base, "health")
	if err == nil {
		t.Fatalf("health of a daemon with a quarantined host succeeded:\n%s", out)
	}
	if !strings.Contains(out, "quarantined=[box-b]") || !strings.Contains(out, "status: degraded") {
		t.Fatalf("health output does not name the quarantined host:\n%s", out)
	}
}

// TestReportTenantsSorted: `ihctl report` prints its per-tenant lines
// in tenant order, not in map order.
func TestReportTenantsSorted(t *testing.T) {
	_, base := serveFleet(t, "two-socket")
	ctx := context.Background()
	// Tenants show in the report once they move bytes: start a scan
	// workload per tenant.
	var ops []string
	for _, name := range []string{"t5", "t2", "t7", "t0", "t3", "t6", "t1", "t4"} {
		ops = append(ops, `{"op":"workload","workload":"scan","tenant":"`+name+`"}`)
	}
	file := filepath.Join(t.TempDir(), "ops.json")
	if err := os.WriteFile(file, []byte(`{"ops":[`+strings.Join(ops, ",")+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{"batch -f " + file, "advance 500"} {
		if out, err := ihctl(ctx, base, args); err != nil {
			t.Fatalf("ihctl %s: %v\n%s", args, err, out)
		}
	}
	for range 3 {
		out, err := ihctl(ctx, base, "report")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if name, _, ok := strings.Cut(strings.TrimPrefix(line, "tenant "), ":"); ok && strings.HasPrefix(line, "tenant ") {
				got = append(got, name)
			}
		}
		if want := "_system t0 t1 t2 t3 t4 t5 t6 t7"; strings.Join(got, " ") != want {
			t.Fatalf("tenant lines %v, want %s:\n%s", got, want, out)
		}
	}
}
