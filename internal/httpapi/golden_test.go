package httpapi

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
)

// The golden API test: a fixed, seeded request sequence runs in-process
// against four server configurations, and every JSON response is
// compared — canonically, as decoded JSON — with a recorded file in
// testdata/golden/. Rerecord with
//
//	go test ./internal/httpapi -run TestGoldenResponses -update-golden
//
// and review the diff: a changed key, a dropped key or a [] turned
// into null is an API change.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.json from the running server")

// goldenConfig is one server configuration of the golden sequence.
type goldenConfig struct {
	name   string
	hosts  []string
	store  bool
	remedy bool
}

var goldenConfigs = []goldenConfig{
	{"one-host", []string{"two-socket"}, false, false},
	{"one-host-store-remedy", []string{"two-socket"}, true, true},
	{"two-host-remedy", []string{"box-a", "box-b"}, false, true},
	{"two-host-store", []string{"box-a", "box-b"}, true, false},
}

// volatileKeys are masked wherever they appear: wall clocks, uptime
// and build information.
var volatileKeys = map[string]bool{
	"uptime_seconds": true, "version": true, "go_version": true, "module": true,
	"vcs_revision": true, "wall_ns": true, "wall_dur_ns": true,
}

// wallHistograms are the roll-up histograms that observe wall time.
var wallHistograms = map[string]bool{
	"ihnet_fabric_recompute_duration_ns": true,
	"ihnet_snap_encode_seconds":          true,
	"ihnet_snap_decode_seconds":          true,
	"ihnet_fleet_epoch_duration_seconds": true,
	"ihnet_fleet_straggler_ratio":        true,
	"ihnet_remedy_step_wall_latency_us":  true,
	"cmd_effect_latency_us":              true,
}

// goldenExchange is one recorded request and its response.
type goldenExchange struct {
	Request string `json:"request"`
	Status  int    `json:"status"`
	Body    any    `json:"body"`
}

// goldenRun drives the sequence against one configuration.
type goldenRun struct {
	t        *testing.T
	s        *Server
	mux      *http.ServeMux
	storeDir string
	seq      int
	log      []goldenExchange
	routes   map[string]bool
	types    map[string]reflect.Type // mounted pattern -> declared response type
}

func newGoldenRun(t *testing.T, cfg goldenConfig, routes map[string]bool) *goldenRun {
	t.Helper()
	f := fleet.New()
	for i, name := range cfg.hosts {
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
	s, err := New(f, fleet.ShardConfig{Epoch: 500 * simtime.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenRun{t: t, s: s, routes: routes}
	if cfg.store {
		g.storeDir = t.TempDir()
		fs, err := store.OpenFleet(g.storeDir, store.Options{Sync: store.SyncOS})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fs.Close() })
		for _, h := range f.Hosts() {
			hs, err := fs.Host(h.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := hs.Bootstrap(h.Sess); err != nil {
				t.Fatal(err)
			}
		}
		s.SetStore(fs)
	}
	if cfg.remedy {
		fc, err := remedy.NewFleet(f, s.Runner(), remedy.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fc.Close)
		s.SetRemedy(fc)
	}
	g.mux = s.Handler().(*http.ServeMux)
	g.types = make(map[string]reflect.Type)
	for _, rt := range s.apiRoutes() {
		g.types[rt.Method+" "+rt.Path()] = rt.Resp
	}
	return g
}

// do sends one request with a fixed X-Request-ID, records the
// response, and checks that the route's declared type describes every
// key of it: the body decodes into that type with unknown fields
// disallowed and re-encodes to the same document.
func (g *goldenRun) do(method, path, body string) {
	g.t.Helper()
	g.seq++
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", fmt.Sprintf("golden-%02d", g.seq))
	_, pattern := g.mux.Handler(req)
	if pattern != "/" {
		g.routes[routeKey(pattern)] = true
	}
	rec := httptest.NewRecorder()
	g.mux.ServeHTTP(rec, req)
	data := rec.Body.Bytes()
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		g.t.Fatalf("%s %s: content type %q", method, path, rec.Header().Get("Content-Type"))
	}
	v, err := canonical(data, g.storeDir)
	if err != nil {
		g.t.Fatalf("%s %s: %v\n%s", method, path, err, data)
	}
	g.log = append(g.log, goldenExchange{Request: method + " " + path, Status: rec.Code, Body: v})

	typ := reflect.TypeFor[api.ErrorBody]()
	if rec.Code < 300 {
		typ = g.types[pattern]
	}
	if typ == nil {
		g.t.Fatalf("%s %s: route %q declares no response type", method, path, pattern)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	typed := reflect.New(typ)
	if err := dec.Decode(typed.Interface()); err != nil {
		g.t.Errorf("%s %s: body does not decode into %v: %v", method, path, typ, err)
		return
	}
	again, err := json.Marshal(typed.Interface())
	if err != nil {
		g.t.Fatal(err)
	}
	if rv, err := canonical(again, g.storeDir); err != nil || !reflect.DeepEqual(rv, v) {
		g.t.Errorf("%s %s: %v re-encodes differently (err %v)\n got: %s\nwant: %s", method, path, typ, err, again, data)
	}
}

// routeKey names a mounted pattern by its route-table row: the host
// table's rows answer both under hostPrefix and on the one-host alias.
func routeKey(pattern string) string {
	method, path, _ := strings.Cut(pattern, " ")
	path = strings.TrimPrefix(path, api.Prefix)
	return method + " " + strings.TrimPrefix(path, hostPrefix)
}

// canonical decodes a JSON body with UseNumber and masks the volatile
// values, so two bodies compare equal exactly when they carry the same
// keys with the same values and types.
func canonical(data []byte, storeDir string) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return mask(v, "", storeDir), nil
}

func mask(v any, key, storeDir string) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			switch {
			case volatileKeys[k]:
				x[k] = "<volatile>"
			case key == "histograms" && wallHistograms[k]:
				x[k] = "<wall-time>"
			default:
				x[k] = mask(e, k, storeDir)
			}
		}
	case []any:
		for i, e := range x {
			x[i] = mask(e, key, storeDir)
		}
	case string:
		if storeDir != "" && strings.Contains(x, storeDir) {
			return strings.ReplaceAll(x, storeDir, "<store-dir>")
		}
	}
	return v
}

// sequence is the fixed request sequence. hp is the host prefix of
// the first host: the one-host alias or its fleet path.
func (g *goldenRun) sequence(cfg goldenConfig, withExperiment bool) {
	first, last := cfg.hosts[0], cfg.hosts[len(cfg.hosts)-1]
	hp := api.Prefix
	if len(cfg.hosts) > 1 {
		hp = api.Prefix + "/fleet/hosts/" + first
	}
	v1 := func(p string) string { return api.Prefix + p }
	const policy = `{"rules":[{"class":"*","actions":["rollback"]}],"cooldown_us":100,"hysteresis_steps":1,"max_actions_per_incident":2}`

	g.do("GET", v1("/healthz"), "")
	g.do("GET", hp+"/topology", "")
	// Empty collections before any tenant or fault: [] and null must
	// stay as they are.
	g.do("GET", hp+"/tenants", "")
	g.do("GET", hp+"/alerts", "")
	g.do("GET", hp+"/detections", "")
	g.do("GET", hp+"/report", "")
	g.do("GET", hp+"/telemetry", "")
	g.do("GET", hp+"/trace/events?limit=5", "")
	g.do("GET", hp+"/state/hash", "")
	g.do("GET", v1("/fleet/report"), "")
	g.do("POST", v1("/fleet/rebalance"), "")
	g.do("POST", hp+"/tenants", `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`)
	g.do("POST", hp+"/tenants", `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`)
	g.do("POST", hp+"/tenants", `{"tenant":`)
	g.do("POST", v1("/fleet/tenants"), `{"tenant":"ml","targets":[{"src":"gpu0","dst":"socket0.dimm0_0","rate_gbps":4}]}`)
	g.do("POST", hp+"/batch", `{"ops":[
		{"op":"admit","tenant":"b1","targets":[{"src":"gpu0","dst":"socket0.dimm0_0","rate_gbps":2}]},
		{"op":"set-cap","link":"pcieswitch0->nic0","tenant":"b1","cap_bps":1e9},
		{"op":"degrade","link":"gpu0->socket0.rootport1","loss_frac":0.3,"extra_ns":800},
		{"op":"set-config","component":"socket0.llc","key":"ddio","value":"off"},
		{"op":"workload","workload":"scan","tenant":"scan"}]}`)
	g.do("POST", hp+"/batch", `{"ops":[
		{"op":"admit","tenant":"b2","targets":[{"src":"nic1","dst":"socket1.dimm1_0","rate_gbps":1}]},
		{"op":"evict","tenant":"ghost"},
		{"op":"fail","link":"pcieswitch0->nic0"}]}`)
	g.do("POST", hp+"/batch", `{"ops":[{"op":"reboot"}]}`)
	g.do("POST", hp+"/batch", `{"ops":[]}`)
	g.do("POST", v1("/fleet/advance"), `{"micros":2000}`)
	g.do("POST", v1("/advance"), `{"micros":500}`)
	g.do("POST", v1("/fleet/advance"), `{"micros":0}`)
	for range 3 {
		g.s.Advance(simtime.Millisecond) // the daemon's auto-advance: remediation steps
	}
	// Degrade a link after the detector has calibrated: detections,
	// an open incident and a degraded healthz.
	g.do("POST", hp+"/batch", `{"ops":[{"op":"degrade","link":"cpu0->cpu1","extra_ns":50000}]}`)
	for range 3 {
		g.s.Advance(100 * simtime.Microsecond)
	}
	g.do("GET", v1("/healthz"), "")
	g.do("GET", hp+"/detections", "")
	g.do("GET", hp+"/remedy/status", "")
	g.do("GET", v1("/fleet/remedy/status"), "")
	g.do("GET", hp+"/report", "")
	g.do("GET", hp+"/alerts", "")
	g.do("GET", hp+"/detections", "")
	g.do("GET", hp+"/tenants", "")
	g.do("GET", hp+"/tenants/kv/usage", "")
	g.do("GET", hp+"/tenants/ghost/usage", "")
	g.do("GET", hp+"/fabric/solver", "")
	g.do("GET", hp+"/diag/ping?src=gpu0&dst=nic0", "")
	g.do("GET", hp+"/diag/ping?src=gpu0&dst=nowhere", "")
	g.do("GET", hp+"/diag/trace?src=gpu0&dst=socket0.dimm0_0", "")
	g.do("GET", hp+"/diag/perf?src=gpu0&dst=nic1", "")
	g.do("GET", hp+"/diag/perf?src=nic0&dst=socket0.dimm0_0&tenant=kv", "")
	g.do("GET", hp+"/telemetry?metric=util&link="+url.QueryEscape("pcieswitch0->nic0"), "")
	g.do("GET", hp+"/telemetry?since_ns=-1", "")
	g.do("GET", hp+"/trace/events?limit=25", "")
	g.do("GET", hp+"/trace/events?kind=no-such-kind", "")
	g.do("GET", hp+"/state/hash", "")
	g.seq++
	req := httptest.NewRequest("POST", hp+"/snapshot", nil)
	rec := httptest.NewRecorder()
	g.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		g.t.Fatalf("snapshot: %d %s", rec.Code, rec.Body)
	}
	g.do("POST", hp+"/restore", rec.Body.String())
	g.do("POST", hp+"/restore", `{"format":"nope"}`)
	g.do("GET", hp+"/tenants/kv/verify", "")
	g.do("GET", hp+"/tenants/ghost/verify", "")
	for range 5 {
		g.s.Advance(simtime.Millisecond)
	}
	g.do("GET", hp+"/remedy/status", "")
	g.do("GET", hp+"/remedy/policy", "")
	g.do("PUT", hp+"/remedy/policy", policy)
	g.do("PUT", hp+"/remedy/policy", `{"rules":[`)
	g.do("GET", v1("/fleet/remedy/status"), "")
	g.do("GET", v1("/fleet/remedy/policy"), "")
	g.do("PUT", v1("/fleet/remedy/policy"), policy)
	g.do("GET", v1("/fleet/hosts"), "")
	g.do("GET", v1("/fleet/report"), "")
	g.do("GET", v1("/fleet/fabric/solver"), "")
	g.do("GET", v1("/fleet/state/hash"), "")
	g.do("GET", v1("/fleet/shards"), "")
	g.do("GET", v1("/fleet/metrics/rollup"), "")
	g.do("POST", v1("/fleet/tenants/ml/migrate"), `{"host":"`+first+`"}`)
	g.do("POST", v1("/fleet/tenants/ml/migrate"), `{}`)
	g.do("POST", v1("/fleet/rebalance"), "")
	g.do("DELETE", hp+"/tenants/b1", "")
	g.do("DELETE", hp+"/tenants/b1", "")
	g.do("DELETE", v1("/fleet/tenants/ml"), "")
	g.do("DELETE", v1("/fleet/tenants/ml"), "")
	g.do("GET", v1("/fleet/hosts/nope/report"), "")
	g.do("POST", v1("/fleet/advance"), `{"micros":1000}`)
	if withExperiment {
		g.do("GET", v1("/experiments/e1"), "")
		g.do("GET", v1("/experiments/E99"), "")
	}
	if len(cfg.hosts) > 1 && cfg.store {
		// Quarantine the last host mid-epoch: the advance reports it,
		// and the listings and healthz show it.
		g.s.Fleet().Host(last).Mgr.Engine().After(300*simtime.Microsecond, func() {
			panic(fmt.Errorf("injected fault"))
		})
		g.do("POST", v1("/fleet/advance"), `{"micros":1000}`)
		g.do("GET", v1("/fleet/hosts"), "")
		g.do("GET", v1("/fleet/shards"), "")
		g.do("GET", v1("/fleet/report"), "")
	}
	g.do("GET", hp+"/detections", "")
	g.do("GET", v1("/healthz"), "")
}

// TestGoldenResponses runs the golden sequence in every configuration
// and compares each JSON response with the recorded one, then checks
// that the sequence called every JSON route of both tables (every
// route that declares a response type).
func TestGoldenResponses(t *testing.T) {
	// Worker counts default to GOMAXPROCS and are part of the
	// responses; pin them so the files do not depend on the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	called := make(map[string]bool)
	all := make(map[string]bool)
	for i, cfg := range goldenConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			g := newGoldenRun(t, cfg, called)
			for _, rt := range g.s.apiRoutes() {
				if rt.Resp != nil {
					all[routeKey(rt.Method+" "+rt.Path())] = true
				}
			}
			g.sequence(cfg, i == 0)
			path := filepath.Join("testdata", "golden", cfg.name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(g.log, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			compareGolden(t, path, g)
		})
	}
	for key := range all {
		if !called[key] {
			t.Errorf("golden sequence never calls %s", key)
		}
	}
}

func compareGolden(t *testing.T, path string, g *goldenRun) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var want []goldenExchange
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(g.log) {
		t.Fatalf("%d exchanges, golden file has %d", len(g.log), len(want))
	}
	for i, got := range g.log {
		w := want[i]
		if got.Request != w.Request || got.Status != w.Status || !reflect.DeepEqual(got.Body, w.Body) {
			gj, _ := json.MarshalIndent(got, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("exchange %d differs\n got: %s\nwant: %s", i, gj, wj)
		}
	}
}
