// Command bench is the repository's end-to-end benchmark. It builds
// ./cmd/ihnetd, boots the real daemon on a loopback port and drives one
// of four workloads through its HTTP routes, printing every metric by
// name with its unit and, as the last line, one JSON result object.
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload churn --seed 1 [--seconds 20] [--trace 1]
//	bash bench/run.sh --workload all --runs 5
//
// --trace 1 splits the window in two: an untraced half, then a traced
// half that reports per-layer metrics instead of the end-to-end ones and
// writes its spans, CPU profile and /metrics scrapes to --trace-dir.
// --runs K repeats each workload with seeds seed..seed+K-1 and prints
// each end-to-end metric's median and spread. README.md describes the
// workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Defaults of a run. The load generator is one process with
// GOMAXPROCS=2 and at most two connections.
const (
	loadProcs    = 2
	warmup       = 2 * time.Second
	setupBoots   = 5
	minClassSize = 200
)

func main() {
	runtime.GOMAXPROCS(loadProcs)
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: trace the second half of the window and print per-layer metrics")
	traceDir := flag.String("trace-dir", "", "where a traced run writes its files (default .bench_build/trace/<workload>-<seed>)")
	runs := flag.Int("runs", 1, "runs per workload; above 1, print each metric's median and spread")
	flag.Parse()
	if err := benchmark(*name, *seed, *seconds, *trace, *traceDir, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// benchmark runs from the repository root.
func benchmark(name string, seed int64, seconds, trace int, traceDir string, runs int) error {
	var ws []workload
	if name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(name); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || runs < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1, --runs >= 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	cfg := config{out: filepath.Join(root, ".bench_build"), window: time.Duration(seconds) * time.Second, minClass: minClassSize}
	if trace == 1 {
		half := max(1, seconds/2)
		cfg.window = time.Duration(half) * time.Second
		cfg.traceWindow = time.Duration(max(1, seconds-half)) * time.Second
	}
	cfg.bin = filepath.Join(cfg.out, "ihnetd")
	if err := goBuild(root, cfg.bin, "./cmd/ihnetd"); err != nil {
		return err
	}
	if trace == 1 {
		cfg.probe = filepath.Join(cfg.out, "storeprobe")
		if err := goBuild(filepath.Join(root, "bench", "storeprobe"), cfg.probe, "."); err != nil {
			return err
		}
	}

	var reports []*report
	for _, w := range ws {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cfg.traceDir = traceDir
			if cfg.traceDir == "" {
				cfg.traceDir = filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-%d", w.name, s))
			}
			rep, err := runWorkload(cfg, w, s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			printReport(rep, cfg.traceDir)
			reports = append(reports, rep)
		}
	}
	var res result
	if len(reports) == 1 {
		res = single(reports[0])
	} else {
		res = summary(reports)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// single is the result line of one run: the end-to-end metrics, or the
// per-layer ones for a traced run.
func single(rep *report) result {
	defs, values := endToEnd, rep.e2e
	if rep.layer != nil {
		defs, values = perLayer, rep.layer
	}
	return result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: pick(defs, values)}
}

// summary prints, per workload, each end-to-end metric's median and
// spread (interquartile range over median) across the runs, flagging
// spreads above the metric's bound, and returns the medians keyed
// "<workload>/<metric>".
func summary(reports []*report) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	byWorkload := map[string][]*report{}
	var order []string
	for _, r := range reports {
		if byWorkload[r.workload] == nil {
			order = append(order, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	for _, name := range order {
		rs := byWorkload[name]
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", name, len(rs), rs[0].seed, rs[len(rs)-1].seed)
		fmt.Printf("  %-22s %14s %-6s %8s %6s\n", "metric", "median", "unit", "spread", "bound")
		for _, d := range endToEnd {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.e2e[d.Name]
			}
			med := median(vals)
			res.Metrics[name+"/"+d.Name] = metricValue{Value: med, Unit: d.Unit}
			if len(rs) < 2 {
				fmt.Printf("  %-22s %14.4f %-6s\n", d.Name, med, d.Unit)
				continue
			}
			sp, note := spread(vals), ""
			switch {
			case sp > d.Bound:
				note = "SPREAD ABOVE BOUND"
			case sp > d.Bound/3:
				note = "spread above bound/3"
			}
			fmt.Printf("  %-22s %14.4f %-6s %7.2f%% %5.0f%%  %s\n", d.Name, med, d.Unit, 100*sp, 100*d.Bound, note)
		}
	}
	return res
}

// printReport prints one run: every metric by name with its unit, the
// raw value behind each normalised one, and any failed check.
func printReport(rep *report, traceDir string) {
	fmt.Printf("== %s seed %d: %d requests, %d failed (error rate %.5f); calibration %.2f ms in the window (reference %.2f), fastest %.2f -> %.2f ms; run took %.1f s\n",
		rep.workload, rep.seed, rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)),
		rep.calibMs, calibRefMs, rep.calib[0], rep.calib[1], rep.elapsed.Seconds())
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.4f %-6s raw.%s %.4f  n=%d\n",
			d.Name, rep.e2e[d.Name], d.Unit, d.Name, rep.raw[d.Name], rep.samples[d.Name])
	}
	for _, name := range tails {
		note := "not gated"
		if p := rep.tailPct[name]; p != 99 {
			note = fmt.Sprintf("p%.1f: too few samples for p99; not gated", p)
		}
		fmt.Printf("  %-34s %14.4f %-6s raw.%s %.4f  n=%d (%s)\n",
			name, rep.e2e[name], "us", name, rep.raw[name], rep.samples[name], note)
	}
	if rep.layer != nil {
		names := make([]string, 0, len(perLayer))
		units := map[string]string{}
		for _, d := range perLayer {
			names = append(names, d.Name)
			units[d.Name] = d.Unit
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f %s\n", n, rep.layer[n], units[n])
		}
		fmt.Printf("  trace files in %s\n", traceDir)
	}
	for _, f := range rep.failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
}
