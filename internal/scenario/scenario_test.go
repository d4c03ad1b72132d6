package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snap"
)

const degradeDrill = `{
  "name": "silent-switch-degradation",
  "preset": "two-socket",
  "seed": 42,
  "duration_us": 6000,
  "workloads": [
    {"kind": "kv", "tenant": "kv", "at_us": 0}
  ],
  "faults": [
    {"kind": "degrade", "link": "pcieswitch0->nic0", "at_us": 3000, "loss_frac": 0.2, "extra_us": 10}
  ],
  "asserts": [
    {"kind": "detected_within_us", "within_us": 1000},
    {"kind": "top_suspect", "link": "pcieswitch0->nic0"}
  ]
}`

func TestLoadValidation(t *testing.T) {
	if _, err := Load(strings.NewReader(degradeDrill)); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{`,
		`{"name":"", "preset":"two-socket", "duration_us":1}`,
		`{"name":"x", "preset":"warp", "duration_us":1}`,
		`{"name":"x", "preset":"two-socket", "duration_us":0}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "workloads":[{"kind":"quantum","tenant":"t"}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "workloads":[{"kind":"kv","tenant":""}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "faults":[{"kind":"degrade"}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "faults":[{"kind":"config"}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "faults":[{"kind":"meteor","link":"l"}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "asserts":[{"kind":"vibes"}]}`,
		`{"name":"x", "preset":"two-socket", "duration_us":1, "bogus": 1}`,
	}
	for i, src := range bad {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// Timeline times outside [0, duration_us]: a workload before the
// clock starts, and a config fault after the drill has ended.
const (
	negativeTimeDrill = `{"name": "early", "preset": "two-socket", "seed": 1, "duration_us": 1000,
	  "workloads": [{"kind": "kv", "tenant": "kv", "at_us": -5}]}`
	lateFaultDrill = `{"name": "late", "preset": "two-socket", "seed": 1, "duration_us": 1000,
	  "faults": [{"kind": "config", "component": "socket0.llc", "key": "ddio", "value": "off", "at_us": 5000}],
	  "asserts": [{"kind": "drift_alert"}]}`
)

func TestLoadRejectsNegativeTime(t *testing.T) {
	_, err := Load(strings.NewReader(negativeTimeDrill))
	if err == nil || !strings.Contains(err.Error(), "at_us -5 is outside [0, 1000]") {
		t.Fatalf("Load = %v, want an out-of-range at_us error", err)
	}
}

func TestLoadRejectsTimePastDuration(t *testing.T) {
	_, err := Load(strings.NewReader(lateFaultDrill))
	if err == nil || !strings.Contains(err.Error(), "at_us 5000 is outside [0, 1000]") {
		t.Fatalf("Load = %v, want an out-of-range at_us error", err)
	}
}

// TestRunAppliesOpAtDuration: an operation due at the drill's last
// instant still applies, and the drill still runs through that instant.
func TestRunAppliesOpAtDuration(t *testing.T) {
	spec, err := Load(strings.NewReader(strings.Replace(lateFaultDrill, `"at_us": 5000`, `"at_us": 1000`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if last := res.Timeline[len(res.Timeline)-1]; !strings.HasPrefix(last, "t=1ms ") {
		t.Fatalf("fault logged as %q, want it at t=1ms", last)
	}
	if j := res.Snapshot.Journal; j.Entries[j.Len()-1].Kind != snap.KindAdvance {
		t.Fatalf("journal does not end with the advance to the drill's end: %+v", j.Entries)
	}
}

// FuzzLoad: Load never panics, and a spec it accepts converts to a
// journal that passes snap's structural validation.
func FuzzLoad(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(degradeDrill))
	f.Add([]byte(negativeTimeDrill))
	f.Add([]byte(lateFaultDrill))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, j := ToJournal(spec); j.Validate() != nil {
			t.Fatalf("accepted spec gives an invalid journal: %v", j.Validate())
		}
	})
}

func TestRunDegradeDrillPasses(t *testing.T) {
	spec, err := Load(strings.NewReader(degradeDrill))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("drill failed: %+v", res.Checks)
	}
	if len(res.Checks) != 2 {
		t.Fatalf("checks: %d", len(res.Checks))
	}
	if len(res.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
}

func TestRunIsolationDrill(t *testing.T) {
	const drill = `{
	  "name": "kv-guarantee-under-antagonists",
	  "preset": "two-socket",
	  "seed": 42,
	  "duration_us": 3000,
	  "tenants": [
	    {"tenant": "kv", "targets": [
	      {"src": "nic0", "dst": "socket0.dimm0_0", "rate_gbps": 80},
	      {"src": "socket0.dimm0_0", "dst": "nic0", "rate_gbps": 80}
	    ]}
	  ],
	  "workloads": [
	    {"kind": "kv", "tenant": "kv", "at_us": 0},
	    {"kind": "ml", "tenant": "ml", "at_us": 200},
	    {"kind": "loopback", "tenant": "evil", "at_us": 400}
	  ],
	  "asserts": [
	    {"kind": "p99_below_us", "tenant": "kv", "value_us": 31},
	    {"kind": "tenant_rate_at_least_gbps", "tenant": "evil", "gbps": 50},
	    {"kind": "no_detection"}
	  ]
	}`
	spec, err := Load(strings.NewReader(drill))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Passed {
			t.Errorf("check %s failed: %s", c.Assert.Kind, c.Detail)
		}
	}
}

func TestRunConfigDriftDrill(t *testing.T) {
	const drill = `{
	  "name": "ddio-flip",
	  "preset": "two-socket",
	  "seed": 1,
	  "duration_us": 2000,
	  "faults": [
	    {"kind": "config", "component": "socket0.llc", "key": "ddio", "value": "off", "at_us": 500}
	  ],
	  "asserts": [
	    {"kind": "drift_alert"}
	  ]
	}`
	spec, err := Load(strings.NewReader(drill))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("drill failed: %+v", res.Checks)
	}
}

func TestRunFailingAssertReported(t *testing.T) {
	const drill = `{
	  "name": "impossible",
	  "preset": "two-socket",
	  "seed": 1,
	  "duration_us": 1000,
	  "asserts": [
	    {"kind": "drift_alert"}
	  ]
	}`
	spec, _ := Load(strings.NewReader(drill))
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("drill with unmet assert passed")
	}
}

func TestRunBadAdmission(t *testing.T) {
	const drill = `{
	  "name": "over-ask",
	  "preset": "two-socket",
	  "seed": 1,
	  "duration_us": 1000,
	  "tenants": [
	    {"tenant": "greedy", "targets": [{"src": "gpu0", "dst": "nic0", "rate_gbps": 9999}]}
	  ]
	}`
	spec, _ := Load(strings.NewReader(drill))
	if _, err := Run(spec); err == nil {
		t.Fatal("infeasible admission accepted")
	}
}

func TestRunBadFaultLink(t *testing.T) {
	const drill = `{
	  "name": "bad-link",
	  "preset": "two-socket",
	  "seed": 1,
	  "duration_us": 1000,
	  "faults": [{"kind": "fail", "link": "no->where", "at_us": 100}]
	}`
	spec, _ := Load(strings.NewReader(drill))
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown fault link accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec, _ := Load(strings.NewReader(degradeDrill))
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Checks) != len(b.Checks) {
		t.Fatal("nondeterministic checks")
	}
	for i := range a.Checks {
		if a.Checks[i].Detail != b.Checks[i].Detail {
			t.Fatalf("nondeterministic detail: %q vs %q", a.Checks[i].Detail, b.Checks[i].Detail)
		}
	}
}
