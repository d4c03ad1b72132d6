package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fabric.(*Fabric).recompute":                                    "fabric",
		"repro/internal/httpapi.(*Server).wrap.func2":                                  "httpapi",
		"repro/internal/obs.(*Ring[go.shape.struct { repro/internal/fabric.x }]).Push": "obs",
		"repro/internal/telemetry.collect[...]":                                        "telemetry",
		"encoding/json.Marshal":                                                        "encoding_json",
		"encoding/json.(*encodeState).marshal":                                         "encoding_json",
		"net/http.(*conn).serve":                                                       "net_http",
		"net/http/pprof.Profile":                                                       "",
		"runtime.mallocgc":                                                             "",
		"sort.Strings":                                                                 "",
		"repro/internal/remedy.(*Controller).Step":                                     "", // not a layer
		"repro/cmd/internal/cli.Build":                                                 "",
		"main.main":                                                                    "",
		"type:.eq.repro/internal/fabric.key":                                           "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A hand-encoded profile.proto: function and location tables with an
// inlined frame, and samples with packed and unpacked location ids.
func syntheticProfile() []byte {
	str := []string{"", "samples", "count",
		"runtime.mallocgc",                            // 3
		"repro/internal/fabric.(*Fabric).solve",       // 4
		"repro/internal/httpapi.(*Server).postTenant", // 5
		"encoding/json.Marshal",                       // 6
		"runtime.futex",                               // 7
		"repro/internal/remedy.(*Controller).Step",    // 8
		"repro/internal/topology.(*Path).Hops",        // 9
	}
	var p []byte
	p = pbBytes(p, 1, pbField(pbField(nil, 1, 1), 2, 2)) // sample_type samples/count
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 8, 7: 9} {
		p = pbBytes(p, 5, pbField(pbField(nil, 1, id), 2, name))
	}
	loc := func(id uint64, fns ...uint64) []byte {
		b := pbField(nil, 1, id)
		for _, fn := range fns {
			b = pbBytes(b, 4, pbField(pbField(nil, 1, fn), 2, 10))
		}
		return b
	}
	p = pbBytes(p, 4, loc(1, 1))
	p = pbBytes(p, 4, loc(2, 7, 2)) // topology inlined into fabric, innermost first
	p = pbBytes(p, 4, loc(3, 3))
	p = pbBytes(p, 4, loc(4, 4))
	p = pbBytes(p, 4, loc(5, 5))
	p = pbBytes(p, 4, loc(6, 6))
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = pbVarint(b, x)
		}
		return b
	}
	// malloc inside inlined topology code inside fabric: topology.
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(1, 2, 3)), 2, packed(3, 3e6)))
	// json under httpapi, ids unpacked: encoding_json.
	p = pbBytes(p, 2, pbField(pbField(pbField(pbField(nil, 1, 1), 1, 4), 1, 3), 2, 2))
	// no layer frame at all: runtime.
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(5)), 2, packed(4)))
	// remedy is not a layer, so its cost lands on its caller: httpapi.
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(6, 3)), 2, packed(1)))
	for _, s := range str {
		p = pbBytes(p, 6, []byte(s))
	}
	return p
}

func pbVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbField(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(num)<<3|2), uint64(len(data))), data...)
}

func TestAttributeSyntheticProfile(t *testing.T) {
	raw := syntheticProfile()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzipped": gz.Bytes()} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shares, total := attribute(p)
		if total != 10 {
			t.Fatalf("%s: %d samples, want 10", name, total)
		}
		want := map[string]float64{"topology": 30, "encoding_json": 20, "runtime": 40, "httpapi": 10}
		for _, l := range layers {
			if math.Abs(shares[l]-want[l]) > 1e-9 {
				t.Errorf("%s: cpu.%s = %v, want %v", name, l, shares[l], want[l])
			}
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	raw := syntheticProfile()
	if _, err := parseProfile(raw[:len(raw)-3]); err == nil {
		t.Error("a truncated profile parsed")
	}
}

// testdata/tiny.pprof is a one-second CPU profile of ihnetd serving the
// churn workload, 81 samples. Its attribution is pinned, in samples per
// layer: a change to the rule shows up here.
func TestAttributeCommittedProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/tiny.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	shares, total := attribute(p)
	if total != 81 {
		t.Fatalf("%d samples, want 81", total)
	}
	want := map[string]int{
		"topology": 24, "arbiter": 19, "net_http": 10, "fabric": 9, "runtime": 8,
		"obs": 4, "anomaly": 2, "encoding_json": 2, "httpapi": 2, "telemetry": 1,
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		if w := 100 * float64(want[l]) / 81; math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("cpu.%s = %.4f%%, want %.4f%% (%d samples)", l, shares[l], w, want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100", sum)
	}
}
