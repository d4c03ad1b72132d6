package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// runTrace implements `ihdiag trace`: drive a managed host through a
// representative scenario (tenant admission, contention, optionally a
// mid-run fault), then export the manager's event ring as a Chrome
// trace_event file that about://tracing and Perfetto load directly.
//
// The scenario runs over a recording session, so every command gets a
// span that its effects inherit: the export carries flow arrows from
// each admission, fault, and eviction to the events it caused.
func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ihdiag trace", flag.ContinueOnError)
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this file")
	preset := fs.String("preset", "two-socket",
		"topology preset: "+strings.Join(topology.PresetNames(), ", "))
	seed := fs.Int64("seed", 1, "simulation seed")
	duration := fs.Duration("duration", 3*time.Millisecond, "virtual time to simulate")
	degrade := fs.String("degrade", "socket0.rootport0->pcieswitch0",
		"directed link to silently degrade mid-run (empty = healthy run)")
	events := fs.Int("events", 1<<16, "event ring capacity for the run")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *chrome == "" {
		return errors.New("--chrome <file> is required")
	}

	if _, ok := topology.Presets[*preset]; !ok {
		return fmt.Errorf("unknown preset %q (have %s)", *preset, strings.Join(topology.PresetNames(), ", "))
	}
	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.TraceCapacity = *events
	sess, err := snap.NewSession(snap.Config{Preset: *preset, Options: opts})
	if err != nil {
		return err
	}
	mgr := sess.Manager()

	// A representative workload: a guaranteed tenant, a greedy
	// bystander on the same pathway, and sized transfers completing
	// throughout, so the trace shows admission, arbitration,
	// heartbeats, rate recomputations and flow lifecycle together.
	sess.SetSpan("admit-kv")
	if _, err := sess.Admit("kv", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(10)},
	}); err != nil {
		return fmt.Errorf("admit: %w", err)
	}
	path := mgr.Tenant("kv").Assignments[0].Path
	fab := mgr.Fabric()
	if err := fab.AddFlow(&fabric.Flow{Tenant: "kv", Path: path}); err != nil {
		return err
	}
	if err := fab.AddFlow(&fabric.Flow{Tenant: "evil", Path: path}); err != nil {
		return err
	}
	// A stream of sized transfers so flow-done events appear.
	var pump func(simtime.Time)
	pump = func(simtime.Time) {
		_ = fab.AddFlow(&fabric.Flow{
			Tenant: "batch", Path: path, Size: 1 << 20, OnComplete: pump,
		})
	}
	pump(0)

	third := simtime.Duration(duration.Nanoseconds() / 3)
	advance := func(span string) error {
		sess.SetSpan(span)
		if err := sess.Advance(third); err != nil {
			return fmt.Errorf("advance: %w", err)
		}
		return nil
	}
	if err := advance("healthy-run"); err != nil {
		return err
	}
	if *degrade != "" {
		sess.SetSpan("degrade")
		if err := sess.DegradeLink(*degrade, 0.5, 20*simtime.Microsecond); err != nil {
			return fmt.Errorf("degrade: %w", err)
		}
	}
	if err := advance("degraded-run"); err != nil {
		return err
	}
	sess.SetSpan("evict-kv")
	if err := sess.Evict("kv"); err != nil {
		return fmt.Errorf("evict: %w", err)
	}
	if err := advance("drain-run"); err != nil {
		return err
	}
	mgr.Stop()

	tr := mgr.Obs().Tracer
	f, err := os.Create(*chrome)
	if err != nil {
		return err
	}
	snapshot := tr.Snapshot()
	if err := obs.WriteChromeTrace(f, snapshot); err != nil {
		f.Close()
		return fmt.Errorf("export: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d events (%d recorded, %d dropped) covering %v of virtual time to %s\n",
		len(snapshot), tr.Total(), tr.Dropped(), mgr.Engine().Now(), *chrome)
	fmt.Fprintln(w, "open in about://tracing (Chrome) or https://ui.perfetto.dev")
	return nil
}
