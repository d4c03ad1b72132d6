package fabric

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// FailLink takes one directed link hard down: flows crossing it drop
// to zero rate and probes across it are lost. The paper's anomaly
// platform must detect and localize such failures.
func (f *Fabric) FailLink(id topology.LinkID) error {
	ls, err := f.state(id)
	if err != nil {
		return err
	}
	if !ls.failed {
		ls.failed = true
		f.markLinkDirty(ls)
		f.latencyMoved(ls)
		if f.met != nil {
			f.met.linkFails.Inc()
			if f.met.tracer.Enabled() {
				f.met.tracer.Emit(obs.Event{
					Kind: obs.KindLinkFail, Virtual: f.engine.Now(),
					Subject: string(id),
				})
			}
		}
		f.markDirty()
	}
	return nil
}

// RestoreLink clears a failure and any degradation on a directed link.
// Restoring a healthy link is a no-op: no state change, no metric, no
// trace event — mirroring FailLink's transition guard, so restore
// counts and the trace timeline record actual recoveries only.
func (f *Fabric) RestoreLink(id topology.LinkID) error {
	ls, err := f.state(id)
	if err != nil {
		return err
	}
	if !ls.failed && ls.degradeFrac == 0 && ls.extraLatency == 0 {
		return nil
	}
	ls.failed = false
	ls.degradeFrac = 0
	ls.extraLatency = 0
	ls.capacity = f.baseEffectiveCapacity(ls.link)
	f.markLinkDirty(ls)
	f.latencyMoved(ls)
	f.capacityChanged()
	if f.met != nil {
		f.met.linkRestores.Inc()
		if f.met.tracer.Enabled() {
			f.met.tracer.Emit(obs.Event{
				Kind: obs.KindLinkRestore, Virtual: f.engine.Now(),
				Subject: string(id),
			})
		}
	}
	f.markDirty()
	return nil
}

// DegradeLink silently degrades a directed link: capacity is reduced
// by lossFrac (0..1) and extraLatency is added to each traversal. This
// models the paper's motivating anomaly — "a hardware failure occurring
// on the PCIe switch may silently cause the connected PCIe device to
// suffer performance degradation" — which raw counters cannot localize.
func (f *Fabric) DegradeLink(id topology.LinkID, lossFrac float64, extraLatency simtime.Duration) error {
	ls, err := f.state(id)
	if err != nil {
		return err
	}
	if lossFrac < 0 || lossFrac >= 1 {
		return fmt.Errorf("fabric: degradation fraction %v outside [0,1)", lossFrac)
	}
	if extraLatency < 0 {
		return fmt.Errorf("fabric: negative extra latency")
	}
	ls.degradeFrac = lossFrac
	ls.extraLatency = extraLatency
	ls.capacity = topology.Rate(float64(f.baseEffectiveCapacity(ls.link)) * (1 - lossFrac))
	f.markLinkDirty(ls)
	f.latencyMoved(ls)
	f.capacityChanged()
	if f.met != nil {
		f.met.linkDegrades.Inc()
		if f.met.tracer.Enabled() {
			f.met.tracer.Emit(obs.Event{
				Kind: obs.KindLinkDegrade, Virtual: f.engine.Now(),
				Subject: string(id), Value: lossFrac,
				Detail: "extra latency " + extraLatency.String(),
			})
		}
	}
	f.markDirty()
	return nil
}

// OnCapacityChange registers fn to run after DegradeLink or
// RestoreLink changes a link's effective capacity — the one point
// where capacity moves (the topology is immutable, and a hard failure
// zeroes a link's rate, not its capacity). The arbiter registers here
// to keep its host-pressure figure current. A fabric has one hook; a
// later registration replaces the earlier one.
func (f *Fabric) OnCapacityChange(fn func()) { f.capacityHook = fn }

func (f *Fabric) capacityChanged() {
	if f.capacityHook != nil {
		f.capacityHook()
	}
}

// baseEffectiveCapacity is raw link capacity after protocol derating
// but before degradation.
func (f *Fabric) baseEffectiveCapacity(l *topology.Link) topology.Rate {
	cap := l.Capacity
	if l.Class == topology.ClassPCIeUp || l.Class == topology.ClassPCIeDown {
		cap = topology.Rate(float64(cap) * f.cfg.PCIeEfficiency)
	}
	return cap
}

// LinkFailed reports whether a directed link is hard down.
func (f *Fabric) LinkFailed(id topology.LinkID) bool {
	ls, err := f.state(id)
	return err == nil && ls.failed
}

// LinkDegraded returns the degradation fraction and injected latency
// of a link (zero values when healthy).
func (f *Fabric) LinkDegraded(id topology.LinkID) (float64, simtime.Duration) {
	ls, err := f.state(id)
	if err != nil {
		return 0, 0
	}
	return ls.degradeFrac, ls.extraLatency
}

// UnhealthyLinks returns the sorted IDs of links that are failed or
// degraded. Used by tests and by experiment harnesses to compare
// detector output with ground truth. linkList is ID-ordered, so the
// result is sorted by construction.
func (f *Fabric) UnhealthyLinks() []topology.LinkID {
	var out []topology.LinkID
	for _, ls := range f.linkList {
		if ls.failed || ls.degradeFrac > 0 || ls.extraLatency > 0 {
			out = append(out, ls.link.ID)
		}
	}
	return out
}
