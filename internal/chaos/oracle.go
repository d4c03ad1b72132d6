package chaos

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Violation is one invariant breach. Seq is the journal position after
// which the breach was observed, so (config, journal prefix through
// Seq) deterministically reproduces it.
type Violation struct {
	// Invariant names the broken property: "link-capacity",
	// "byte-conservation", "guarantee-cap", "work-conservation",
	// "snapshot-restore", "anomaly-localize", "anomaly-clear" or
	// "sse-consistency".
	Invariant string `json:"invariant"`
	// At is the virtual time of the failing check.
	At simtime.Time `json:"at_ns"`
	// Seq indexes the last journal entry applied before the check.
	Seq int `json:"seq"`
	// Subject is the link/tenant/pair the breach is about.
	Subject string `json:"subject,omitempty"`
	Detail  string `json:"detail"`
	// Host is set in fleet mode.
	Host string `json:"host,omitempty"`
}

func (v *Violation) Error() string {
	host := ""
	if v.Host != "" {
		host = " host=" + v.Host
	}
	return fmt.Sprintf("chaos: %s violated at %v (entry %d)%s: %s [%s]",
		v.Invariant, v.At, v.Seq, host, v.Detail, v.Subject)
}

// OracleConfig tunes the invariant checker's tolerances. Tolerances
// exist because the fabric does float accumulation in a fixed order:
// the invariants are exact up to accumulated rounding, not bitwise.
type OracleConfig struct {
	// CapacitySlack is the relative tolerance on allocated rate vs
	// effective capacity.
	CapacitySlack float64
	// BytesRelSlack / BytesAbsSlack bound |total - sum(per-tenant)|
	// byte accounting drift per link.
	BytesRelSlack float64
	BytesAbsSlack float64
	// GuaranteeSlack is the relative tolerance on installed caps vs
	// guarantees.
	GuaranteeSlack float64
	// WCSlackFrac: a link counts as having idle capacity when slack
	// exceeds this fraction of capacity.
	WCSlackFrac float64
	// WCGracePeriods is how many arbiter adjust periods a
	// (link has slack) && (tenant throttled at its cap with unmet
	// demand) condition may persist before it is a work-conservation
	// violation — the lend loop needs several periods to grow caps.
	WCGracePeriods int
	// DetectRoundsMargin is added to the detector's ConsecutiveBad to
	// form the localization deadline, in heartbeat rounds.
	DetectRoundsMargin int
	// ClearRoundsMargin is how many heartbeat rounds after the last
	// restore every pair must have stopped reporting lost probes.
	ClearRoundsMargin int
	// SnapshotEvery is the snapshot->restore check cadence in injected
	// events (journal entries during replay checking). Zero disables.
	SnapshotEvery int
}

// DefaultOracleConfig returns the tolerances used by `ihdiag fuzz`
// and the chaos smoke tests.
func DefaultOracleConfig() OracleConfig {
	return OracleConfig{
		CapacitySlack:      1e-6,
		BytesRelSlack:      1e-6,
		BytesAbsSlack:      1.0,
		GuaranteeSlack:     1e-9,
		WCSlackFrac:        0.05,
		WCGracePeriods:     50,
		DetectRoundsMargin: 4,
		ClearRoundsMargin:  3,
		SnapshotEvery:      64,
	}
}

// Oracle checks cross-layer invariants over one live manager. It is
// driven with the same journal entries the session records (observe),
// plus periodic Check calls; both the live chaos engine and the
// replay checker feed it identically, which is what makes violations
// reproducible from (config, journal) alone.
type Oracle struct {
	mgr *core.Manager
	cfg OracleConfig

	// failedLinks mirrors the injected hard-failure set (journal
	// ground truth, independent of the fabric under test).
	failedLinks map[topology.LinkID]bool
	// failExpect maps a failed link to the deadline by which the
	// anomaly platform must have it (or its reverse) in Suspects().
	failExpect map[topology.LinkID]simtime.Time
	// allClearAt is when failedLinks last became empty.
	allClearAt simtime.Time
	// wcSince tracks, per link, when the work-conservation breach
	// condition was first observed (zero when currently absent).
	wcSince map[topology.LinkID]simtime.Time
}

// NewOracle builds an oracle over the manager.
func NewOracle(mgr *core.Manager, cfg OracleConfig) *Oracle {
	return &Oracle{
		mgr:         mgr,
		cfg:         cfg,
		failedLinks: make(map[topology.LinkID]bool),
		failExpect:  make(map[topology.LinkID]simtime.Time),
		wcSince:     make(map[topology.LinkID]simtime.Time),
	}
}

// votingActive reports whether the heartbeat detector is armed: it
// only votes after its calibration rounds.
func (o *Oracle) votingActive() bool {
	plat := o.mgr.Anomaly()
	return plat != nil && plat.Rounds() > plat.ConfigUsed().CalibrationRounds
}

// ObserveEntry updates the oracle's ground-truth model from one
// journal entry, arming and cancelling anomaly expectations.
func (o *Oracle) ObserveEntry(e snap.Entry) {
	now := o.mgr.Engine().Now()
	switch e.Kind {
	case snap.KindFail:
		link := topology.LinkID(e.Link)
		o.failedLinks[link] = true
		plat := o.mgr.Anomaly()
		if plat != nil && o.votingActive() && plat.CoversLink(link) {
			acfg := plat.ConfigUsed()
			rounds := acfg.ConsecutiveBad + o.cfg.DetectRoundsMargin
			o.failExpect[link] = now.Add(simtime.Duration(rounds) * acfg.Period)
		}
	case snap.KindRestoreLink:
		link := topology.LinkID(e.Link)
		if o.failedLinks[link] {
			delete(o.failedLinks, link)
			if len(o.failedLinks) == 0 {
				o.allClearAt = now
			}
		}
		delete(o.failExpect, link)
	}
}

// Check runs every invariant against the current state and returns
// the breaches found (usually none). Callers stop at the first
// violation; Check keeps internal state (expectation deadlines,
// work-conservation streaks) either way.
func (o *Oracle) Check(seq int) []Violation {
	now := o.mgr.Engine().Now()
	var out []Violation
	add := func(invariant, subject, detail string) {
		out = append(out, Violation{
			Invariant: invariant, At: now, Seq: seq,
			Subject: subject, Detail: detail,
		})
	}

	fab := o.mgr.Fabric()
	links := fab.AllLinkStats()
	for _, ls := range links {
		// Invariant 1: allocated rate never exceeds effective capacity.
		limit := float64(ls.Capacity)*(1+o.cfg.CapacitySlack) + 1
		if float64(ls.CurrentRate) > limit {
			add("link-capacity", string(ls.Link),
				fmt.Sprintf("allocated %.6g B/s exceeds capacity %.6g B/s", float64(ls.CurrentRate), float64(ls.Capacity)))
		}
		// Invariant 2: byte accounting conserves — settled link bytes
		// equal the sum of per-tenant usage.
		var sum float64
		for _, t := range sortedTenantKeys(ls.TenantBytes) {
			sum += ls.TenantBytes[t]
		}
		drift := math.Abs(ls.TotalBytes - sum)
		if drift > math.Max(o.cfg.BytesAbsSlack, o.cfg.BytesRelSlack*ls.TotalBytes) {
			add("byte-conservation", string(ls.Link),
				fmt.Sprintf("link total %.6g bytes vs tenant sum %.6g (drift %.6g)", ls.TotalBytes, sum, drift))
		}
	}

	o.checkGuarantees(add)
	o.checkWorkConservation(now, links, add)
	o.checkAnomaly(now, add)
	return out
}

// checkGuarantees: invariant 3a — in both modes, an installed cap for
// a guaranteed (tenant, link) must never dip below the guarantee
// (work-conserving decay clamps at the baseline; strict pins to it).
func (o *Oracle) checkGuarantees(add func(inv, subj, detail string)) {
	arb := o.mgr.Arbiter()
	fab := o.mgr.Fabric()
	for _, t := range arb.GuaranteedTenants() {
		res := arb.Guaranteed(t)
		for _, l := range res.LinkIDs() {
			want := res.Links[l]
			got, ok := fab.TenantCap(l, t)
			if ok && float64(got) < float64(want)*(1-o.cfg.GuaranteeSlack) {
				add("guarantee-cap", string(l)+"/"+string(t),
					fmt.Sprintf("installed cap %.6g B/s below guarantee %.6g B/s", float64(got), float64(want)))
			}
		}
	}
}

// checkWorkConservation: invariant 3b — in work-conserving mode, a
// link must not sit on idle capacity while some tenant is pinned at
// its cap with unmet demand. The lend loop takes several adjust
// periods to grow caps, so this is an eventual property: the breach
// condition must not persist beyond WCGracePeriods.
func (o *Oracle) checkWorkConservation(now simtime.Time, links []fabric.LinkStats, add func(inv, subj, detail string)) {
	arb := o.mgr.Arbiter()
	if arb.Mode() != arbiter.WorkConserving {
		return
	}
	fab := o.mgr.Fabric()
	// Unmet demand per (link, tenant), from settled flow stats.
	type lt struct {
		link   topology.LinkID
		tenant fabric.TenantID
	}
	unmet := make(map[lt]bool)
	for _, fs := range fab.AllFlowStats() {
		wants := fs.Demand == 0 || float64(fs.Rate) < float64(fs.Demand)*0.98
		if !wants {
			continue
		}
		for _, l := range fs.Links {
			unmet[lt{l, fs.Tenant}] = true
		}
	}
	// Only links the arbiter manages (those with guarantees) have
	// caps to pin anyone at.
	managed := make(map[topology.LinkID]bool)
	for _, t := range arb.GuaranteedTenants() {
		for _, l := range arb.Guaranteed(t).LinkIDs() {
			managed[l] = true
		}
	}
	grace := simtime.Duration(o.cfg.WCGracePeriods) * o.mgr.Options().Arbiter.AdjustPeriod
	for _, ls := range links {
		if !managed[ls.Link] || ls.Failed {
			delete(o.wcSince, ls.Link)
			continue
		}
		slack := float64(ls.Capacity) - float64(ls.CurrentRate)
		breach := ""
		if slack > o.cfg.WCSlackFrac*float64(ls.Capacity) {
			caps := fab.CapsOn(ls.Link)
			for _, t := range sortedTenantKeys(caps) {
				c := caps[t]
				if c <= 0 || t == fabric.SystemTenant {
					continue
				}
				rate := fab.TenantRateOn(ls.Link, t)
				if float64(rate) >= 0.98*float64(c) && unmet[lt{ls.Link, t}] {
					breach = string(t)
					break
				}
			}
		}
		if breach == "" {
			delete(o.wcSince, ls.Link)
			continue
		}
		since, seen := o.wcSince[ls.Link]
		if !seen {
			o.wcSince[ls.Link] = now
			continue
		}
		if now.Sub(since) > grace {
			add("work-conservation", string(ls.Link)+"/"+breach,
				fmt.Sprintf("%.1f%% of capacity idle for %v while tenant is rate-limited at its cap with unmet demand",
					100*(float64(ls.Capacity)-float64(ls.CurrentRate))/float64(ls.Capacity), now.Sub(since)))
			delete(o.wcSince, ls.Link)
		}
	}
}

// checkAnomaly: invariant 5 — eventual convergence of the detector.
// (a) every covered hard failure must show up in the localization
// ranking within its deadline; (b) once every failure is restored, no
// pair may keep reporting lost heartbeats past a small margin.
func (o *Oracle) checkAnomaly(now simtime.Time, add func(inv, subj, detail string)) {
	plat := o.mgr.Anomaly()
	if plat == nil || !o.votingActive() {
		return
	}
	if len(o.failExpect) > 0 {
		suspect := make(map[topology.LinkID]bool)
		for _, s := range plat.Suspects() {
			suspect[s.Link] = true
		}
		topo := o.mgr.Topology()
		for _, link := range sortedLinkKeys(o.failExpect) {
			deadline := o.failExpect[link]
			rev := topology.LinkID("")
			if l := topo.Link(link); l != nil {
				rev = l.Reverse
			}
			if suspect[link] || (rev != "" && suspect[rev]) {
				delete(o.failExpect, link) // localized; expectation met
				continue
			}
			if now > deadline {
				add("anomaly-localize", string(link),
					fmt.Sprintf("hard failure injected, link absent from Suspects() past deadline %v", deadline))
				delete(o.failExpect, link)
			}
		}
	}
	// Clear path: with no failed link anywhere, lost heartbeats must
	// cease within ClearRoundsMargin rounds of the last restore.
	if len(o.failedLinks) == 0 && o.allClearAt > 0 {
		margin := simtime.Duration(o.cfg.ClearRoundsMargin) * plat.ConfigUsed().Period
		if now.Sub(o.allClearAt) >= margin {
			for _, ps := range plat.PairStats() {
				if ps.LastLost {
					add("anomaly-clear", ps.Pair.String(),
						fmt.Sprintf("pair still reporting lost heartbeats %v after last restore", now.Sub(o.allClearAt)))
				}
			}
		}
	}
}

// CheckSnapshot runs the mid-chaos snapshot->restore invariant: the
// session snapshots to memory and Restore must replay the journal to a
// bit-identical state hash (Restore itself verifies the hash).
func (o *Oracle) CheckSnapshot(sess *snap.Session, seq int) *Violation {
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		return &Violation{
			Invariant: "snapshot-restore", At: o.mgr.Engine().Now(), Seq: seq,
			Detail: "snapshot failed: " + err.Error(),
		}
	}
	if _, err := snap.Restore(&buf); err != nil {
		return &Violation{
			Invariant: "snapshot-restore", At: o.mgr.Engine().Now(), Seq: seq,
			Detail: "restore diverged: " + err.Error(),
		}
	}
	return nil
}

func sortedTenantKeys[V any](m map[fabric.TenantID]V) []fabric.TenantID {
	out := make([]fabric.TenantID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedLinkKeys[V any](m map[topology.LinkID]V) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
