package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
)

// fuzzFlags is `ihdiag fuzz`'s flag set. The flags that shape a
// seed's run bind straight into a chaos config; the rest sit beside it.
type fuzzFlags struct {
	fs          *flag.FlagSet
	cfg         chaos.Config // Seed holds the first seed
	seeds       int
	out, replay string
	minimize    bool
	verbose     bool
	remedyRatio float64
}

func newFuzzFlags() *fuzzFlags {
	f := &fuzzFlags{fs: flag.NewFlagSet("ihdiag fuzz", flag.ContinueOnError)}
	fs, c := f.fs, &f.cfg
	fs.Int64Var(&c.Seed, "seed", 1, "first seed")
	fs.IntVar(&f.seeds, "seeds", 1, "number of consecutive seeds to run")
	fs.IntVar(&c.Events, "events", 500, "injected events per seed")
	fs.DurationVar((*time.Duration)(&c.Duration), "dur", 25*time.Millisecond, "virtual duration per seed")
	fs.StringVar(&c.Preset, "preset", "two-socket", "topology preset under test")
	fs.StringVar((*string)(&c.Mode), "mode", "work-conserving", "arbiter mode: strict or work-conserving")
	fs.IntVar(&c.Hosts, "fleet", 0, "run fleet chaos over this many hosts (0 = single host)")
	fs.IntVar(&c.Workers, "workers", 0, "fleet runner workers (0 = GOMAXPROCS)")
	fs.StringVar(&f.out, "out", "chaos-artifacts", "directory for violation artifacts")
	fs.StringVar(&f.replay, "replay", "", "re-check a violation artifact instead of fuzzing")
	fs.BoolVar(&f.minimize, "minimize", true, "shrink violating journals before writing artifacts")
	fs.BoolVar(&f.verbose, "v", false, "print per-seed op counts")
	fs.BoolVar(&c.VsController, "vs-controller", false,
		"arm the remediation controller against the chaos schedule and grade its MTTR")
	fs.DurationVar((*time.Duration)(&c.RemedyDeadline), "remedy-deadline", 2*time.Millisecond,
		"virtual deadline for each eligible fault to be remediated (-vs-controller)")
	fs.Float64Var(&f.remedyRatio, "remedy-ratio", 0.95,
		"minimum remediated/eligible fraction per seed (-vs-controller)")
	return f
}

// reproFlags are the flags bound into the chaos config besides -seed. The repro
// line always names the first three and names the rest when they
// differ from their defaults, so parsing it gives the same config.
var reproFlags = []string{"events", "dur", "preset", "mode", "fleet", "workers", "vs-controller", "remedy-deadline"}

// reproLine is a command that re-runs one seed exactly.
func (f *fuzzFlags) reproLine(seed int64) string {
	line := fmt.Sprintf("ihdiag fuzz -seed %d", seed)
	for i, name := range reproFlags {
		fl := f.fs.Lookup(name)
		v := fl.Value.String()
		switch {
		case i >= 3 && v == fl.DefValue:
		case v == "true":
			line += " -" + name
		default:
			line += " -" + name + " " + v
		}
	}
	return line
}

// runFuzz implements `ihdiag fuzz`: seeded chaos runs under the
// cross-layer invariant oracle (internal/chaos). Exit status 1 means
// at least one seed violated an invariant (or, with -vs-controller,
// healed too few of its faults); each violation leaves a JSON artifact
// that re-derives it deterministically (-replay).
func runFuzz(args []string, w io.Writer) error {
	f := newFuzzFlags()
	if err := parse(f.fs, args); err != nil {
		return err
	}
	if f.replay != "" {
		return replayArtifact(w, f.replay)
	}

	failed := 0
	for i := 0; i < f.seeds; i++ {
		cfg := f.cfg
		s := cfg.Seed + int64(i)
		cfg.Seed = s
		start := time.Now()
		res, err := chaos.Run(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if res.Violation == nil {
			fmt.Fprintf(w, "PASS  seed %-4d %d events (%d rejected), %d snapshot checks, %v virtual, %v wall%s\n",
				s, res.Events, res.Rejected, res.SnapshotChecks, res.FinalTime,
				time.Since(start).Round(time.Millisecond), remedySuffix(res.Remedy))
			if res.Remedy != nil && res.Remedy.Ratio() < f.remedyRatio {
				failed++
				fmt.Fprintf(w, "FAIL  seed %-4d remediated %d/%d eligible (< %.0f%%), missed: %v\n",
					s, res.Remedy.Remediated, res.Remedy.Eligible, f.remedyRatio*100, res.Remedy.Missed)
			}
		} else {
			failed++
			fmt.Fprintf(w, "FAIL  seed %-4d %v\n", s, res.Violation)
			path, err := writeArtifact(w, f.out, res, cfg, f.minimize)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "      repro: ihdiag fuzz -replay %s\n", path)
			fmt.Fprintf(w, "      or:    %s\n", f.reproLine(s))
		}
		if f.verbose {
			for op, n := range res.Counts {
				fmt.Fprintf(w, "      %-16s %d\n", op, n)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "%d/%d seeds violated an invariant\n", failed, f.seeds)
		return exitStatus(1)
	}
	return nil
}

// remedySuffix renders the controller's report card for the PASS line.
func remedySuffix(r *chaos.RemedyReport) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf(", remediated %d/%d eligible (mttr p50/p99 %.0f/%.0f us)",
		r.Remediated, r.Eligible, r.MTTRp50Us, r.MTTRp99Us)
}

// writeArtifact persists the violating run (optionally minimized) and
// returns the artifact path.
func writeArtifact(w io.Writer, dir string, res *chaos.Result, cfg chaos.Config, minimize bool) (string, error) {
	art := chaos.NewArtifact(res, cfg)
	if minimize {
		if j, v, err := chaos.Minimize(res.Config, res.Journal, art.Oracle, 300); err == nil {
			art.Journal, art.Checks, art.Violation = j, nil, v
			fmt.Fprintf(w, "      minimized journal: %d -> %d entries\n", res.Journal.Len(), j.Len())
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.json", res.Seed))
	if err := chaos.WriteArtifact(path, art); err != nil {
		return "", err
	}
	return path, nil
}

// replayArtifact re-derives a violation from its artifact: same
// config, same journal, same oracle — same verdict, or the bug is
// fixed.
func replayArtifact(w io.Writer, path string) error {
	art, err := chaos.ReadArtifact(path)
	if err != nil {
		return err
	}
	v, err := art.Recheck()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if v == nil {
		fmt.Fprintf(w, "PASS  %s no longer violates (recorded: %v)\n", path, art.Violation)
		return nil
	}
	fmt.Fprintf(w, "FAIL  %s reproduces: %v\n", path, v)
	if art.VsController {
		fmt.Fprintf(w, "      the run armed the remediation controller (deadline %v); its actions replay from the journal\n", art.RemedyDeadline)
	}
	return exitStatus(1)
}
