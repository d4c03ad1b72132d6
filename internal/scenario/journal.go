package scenario

import (
	"fmt"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/snap"
	"repro/internal/topology"
)

// ToJournal converts a drill spec into a snap reconstruction config
// and command journal: admissions at time zero, timeline operations in
// schedule order, and a final advance to the drill's duration. Run
// executes exactly these entries (adding the remediation controller's
// ticks and actions when the drill arms one), so a drill on disk is
// also a determinism-regression input — `ihdiag replay` and
// snap.CheckDeterminism consume the result directly.
func ToJournal(spec Spec) (snap.Config, snap.Journal) {
	var j snap.Journal
	var lastNs int64
	for i, st := range steps(spec) {
		st.e.Seq = uint64(i)
		j.Entries = append(j.Entries, st.e)
		lastNs = st.e.AtNs
	}
	j.Entries = append(j.Entries, snap.Entry{Seq: uint64(len(j.Entries)),
		AtNs: lastNs, Kind: snap.KindAdvance, ToNs: spec.DurationUs * 1000})
	return config(spec), j
}

// config is the host a drill runs on.
func config(spec Spec) snap.Config {
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	if spec.ArbiterMode != "" {
		opts.Arbiter.Mode = arbiter.Mode(spec.ArbiterMode)
	}
	return snap.Config{Preset: spec.Preset, Options: opts}
}

// step is one timeline operation: the journal entry that performs it,
// the drill log line that reports it, and whether it injects a fault
// (the first one starts the detection clock).
type step struct {
	e     snap.Entry
	log   string
	fault bool
}

// steps returns a drill's timeline in execution order: admissions at
// time zero, then workloads and faults by at_us. Ties on at_us keep
// every workload ahead of every fault, each in spec order (a stable
// sort over workloads-first input).
func steps(spec Spec) []step {
	var out []step
	for _, ts := range spec.Tenants {
		e := snap.Entry{Kind: snap.KindAdmit, Tenant: ts.Tenant}
		for _, tg := range ts.Targets {
			e.Targets = append(e.Targets, snap.Target{
				Src: tg.Src, Dst: tg.Dst,
				RateBps: float64(topology.Gbps(tg.RateGbps)),
			})
		}
		out = append(out, step{e: e,
			log: fmt.Sprintf("admitted tenant %s (%d targets)", ts.Tenant, len(ts.Targets))})
	}

	var timed []step
	for _, w := range spec.Workloads {
		timed = append(timed, step{
			e: snap.Entry{AtNs: w.AtUs * 1000, Kind: snap.KindWorkload, Workload: w.Kind,
				Tenant: w.Tenant, Src: w.Src, Dst: w.Dst},
			log: fmt.Sprintf("started %s workload for tenant %s", w.Kind, w.Tenant),
		})
	}
	for _, f := range spec.Faults {
		var e snap.Entry
		switch f.Kind {
		case "degrade":
			e = snap.Entry{Kind: snap.KindDegrade, Link: f.Link,
				LossFrac: f.LossFrac, ExtraNs: f.ExtraUs * 1000}
		case "fail":
			e = snap.Entry{Kind: snap.KindFail, Link: f.Link}
		case "restore":
			e = snap.Entry{Kind: snap.KindRestoreLink, Link: f.Link}
		case "config":
			e = snap.Entry{Kind: snap.KindSetConfig,
				Component: f.Component, Key: f.Key, Value: f.Value}
		default:
			continue // Load already rejected unknown kinds
		}
		e.AtNs = f.AtUs * 1000
		timed = append(timed, step{e: e,
			log:   fmt.Sprintf("fault %s %s%s", f.Kind, f.Link, f.Component),
			fault: f.Kind != "restore"})
	}
	sort.SliceStable(timed, func(i, k int) bool { return timed[i].e.AtNs < timed[k].e.AtNs })
	return append(out, timed...)
}
