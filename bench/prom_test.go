package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP cmd_effect_latency_us Wall microseconds.
# TYPE cmd_effect_latency_us histogram
cmd_effect_latency_us_bucket{le="176"} 1
cmd_effect_latency_us_bucket{le="+Inf"} 2
cmd_effect_latency_us_sum 801.375
cmd_effect_latency_us_count 2
ihnet_fabric_recompute_total 11
ihnet_sched_decisions_total{outcome="admitted"} 1
ihnet_odd_label{path="a b"} 3 1700000000
`

const scrapeAfter = `cmd_effect_latency_us_bucket{le="176"} 4
cmd_effect_latency_us_bucket{le="+Inf"} 6
cmd_effect_latency_us_sum 1201.375
cmd_effect_latency_us_count 6

ihnet_fabric_recompute_total 19
ihnet_sched_decisions_total{outcome="admitted"} 5
ihnet_new_series 2.5e3
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`ihnet_odd_label{path="a b"}`]; got != 3 {
		t.Errorf("label value with a space: got %v", got)
	}
	d := promDelta{before, after}
	for series, want := range map[string]float64{
		"ihnet_fabric_recompute_total":                    8,
		`ihnet_sched_decisions_total{outcome="admitted"}`: 4,
		`cmd_effect_latency_us_bucket{le="+Inf"}`:         4,
		"ihnet_new_series":                                2500,
		"ihnet_absent_everywhere":                         0,
	} {
		if got := d.get(series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}
	// 400 us over 4 new observations.
	if got := d.mean("cmd_effect_latency_us"); math.Abs(got-100) > 1e-9 {
		t.Errorf("histogram mean = %v, want 100", got)
	}
	if got := d.mean("ihnet_absent"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{
		"novalue\n",
		"name notanumber\n",
		"name 1 2 3\n",
		`name{l="x"}` + "\n",
	} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}
