package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke builds ihnetd and runs every workload against it for 2 s,
// half untraced and half traced, asserting that every check passes and
// every declared metric is computed. It takes about two minutes, so it
// runs only with IHNET_BENCH_SMOKE=1. A 1 s window is too short for the
// latency classes' minimum sample counts, so that one check is relaxed.
func TestSmoke(t *testing.T) {
	if os.Getenv("IHNET_BENCH_SMOKE") != "1" {
		t.Skip("set IHNET_BENCH_SMOKE=1 to drive every workload through the real daemon")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cfg := config{
		out: out, bin: filepath.Join(out, "ihnetd"), probe: filepath.Join(out, "storeprobe"),
		window: time.Second, traceWindow: time.Second, minClass: 1,
	}
	if err := goBuild(root, cfg.bin, "./cmd/ihnetd"); err != nil {
		t.Fatal(err)
	}
	if err := goBuild("storeprobe", cfg.probe, "."); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := cfg
			cfg.traceDir = filepath.Join(out, "trace", w.name)
			rep, err := runWorkload(cfg, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.failures {
				t.Errorf("check failed: %s", f)
			}
			for _, d := range endToEnd {
				if v, ok := rep.e2e[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (computed: %v), want a positive value", d.Name, v, ok)
				}
			}
			res := single(rep)
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("per-layer %s not printed", d.Name)
				}
			}
			for _, name := range []string{"spans.json", "cpu.pprof", "metrics-before.txt", "metrics-after.txt", "layers.json"} {
				if fi, err := os.Stat(filepath.Join(cfg.traceDir, name)); err != nil || fi.Size() == 0 {
					t.Errorf("trace file %s missing or empty (%v)", name, err)
				}
			}
		})
	}
}
