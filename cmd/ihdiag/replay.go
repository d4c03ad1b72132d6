package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/snap"
	"repro/internal/topology"
)

// runReplay implements `ihdiag replay`: the determinism-regression
// gate. It replays a command journal twice against fresh hosts and
// compares rolling state hashes, exiting non-zero at the first
// divergence. Input is a journal file (paired with -preset/-seed), a
// full snapshot file (self-describing; also verifies checksum and the
// recorded final state hash), or a scenario drill via -scenario, which
// runs the drill and checks the journal it executed — remediation
// controller ticks and actions included.
func runReplay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag replay", flag.ContinueOnError)
	preset := fs.String("preset", "two-socket",
		"host for a bare journal: "+strings.Join(topology.PresetNames(), ", "))
	seed := fs.Int64("seed", 1, "simulation seed for a bare journal")
	scenarioFile := fs.String("scenario", "", "run this drill spec and check the journal it executed")
	hashes := fs.Bool("hashes", false, "print the rolling state hash after every entry")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: ihdiag replay [flags] <journal.json | snapshot.json>
       ihdiag replay -scenario <drill.json>

Replays the command stream twice on fresh hosts and compares rolling
state hashes. Exit status: 0 identical, 1 diverged or corrupt.`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return flagError(err)
	}
	// The input is the -scenario drill or else exactly one file.
	want := 1
	if *scenarioFile != "" {
		want = 0
	}
	switch {
	case fs.NArg() > want:
		return usageError(fmt.Sprintf("%s: unexpected argument %q", fs.Name(), fs.Arg(want)))
	case fs.NArg() < want:
		fs.Usage()
		return exitStatus(2)
	}

	cfg, journal, err := loadReplayInput(w, *scenarioFile, fs.Arg(0), *preset, *seed)
	if err != nil {
		return err
	}

	if *hashes {
		trace, err := snap.ReplayTrace(cfg, journal)
		if err != nil {
			return err
		}
		for _, p := range trace {
			fmt.Fprintf(w, "  %6d  %12dns  %-14s %s\n", p.Seq, p.AtNs, p.Kind, p.Hash)
		}
	}

	div, err := snap.CheckDeterminism(cfg, journal)
	if err != nil {
		return err
	}
	if div != nil {
		return fmt.Errorf("DIVERGED: %v", div)
	}
	fmt.Fprintf(w, "deterministic: %d entries replayed twice, %d hash points identical\n",
		journal.Len(), journal.Len()+1)
	return nil
}

// loadReplayInput resolves the three input forms — a scenario drill,
// or the file at path holding a snapshot or a bare journal — to a
// (config, journal) pair. Snapshot files are recognized by their
// envelope format field and fully verified — checksum, replay, and
// recorded state hash — before their journal is handed back.
func loadReplayInput(w io.Writer, scenarioFile, path, preset string, seed int64) (snap.Config, snap.Journal, error) {
	if scenarioFile != "" {
		spec, err := loadDrill(scenarioFile)
		if err != nil {
			return snap.Config{}, snap.Journal{}, err
		}
		res, err := scenario.Run(spec)
		if err != nil {
			return snap.Config{}, snap.Journal{}, fmt.Errorf("%s: %w", scenarioFile, err)
		}
		return res.Snapshot.Config, res.Snapshot.Journal, nil
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return snap.Config{}, snap.Journal{}, err
	}

	var envelope struct {
		Format string `json:"format"`
	}
	if json.Unmarshal(data, &envelope) == nil && envelope.Format == snap.SnapshotFormat {
		p, err := snap.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return snap.Config{}, snap.Journal{}, fmt.Errorf("%s: %w", path, err)
		}
		// A snapshot records the hash its journal must reproduce;
		// Restore enforces it, which catches perturbed journals even
		// when both replays agree with each other.
		if _, err := snap.Restore(bytes.NewReader(data)); err != nil {
			return snap.Config{}, snap.Journal{}, fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "snapshot %s: checksum ok, replay reaches recorded hash %s\n", path, p.StateHash[:12])
		return p.Config, p.Journal, nil
	}

	var journal snap.Journal
	if err := json.Unmarshal(data, &journal); err != nil {
		return snap.Config{}, snap.Journal{}, fmt.Errorf("%s: not a journal or snapshot: %w", path, err)
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	return snap.Config{Preset: preset, Options: opts}, journal, nil
}
