package remedy

import (
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/simtime"
)

// FleetController drives one per-host remediation controller per
// fleet host, each acting through that host's journaled session, plus
// fleet-scoped verbs (cross-host rebalance, quarantine) exposed to the
// per-host planners through the FleetHook. StepAll must be called
// between epoch barriers — never while the runner is mid-epoch — and
// steps hosts in name order, so the same seed and policy produce
// byte-identical per-host journals regardless of the runner's worker
// count (or, under sharding, its shard count).
type FleetController struct {
	flt    *fleet.Fleet
	runner *fleet.ShardedRunner
	names  []string
	ctrls  map[string]*Controller
}

// NewFleet attaches one controller per current fleet host, acting
// through the host's session; the runner may be nil, which disables
// the quarantine action. A one-host fleet gets no fleet hook:
// rebalancing needs a second host, and quarantining the only host
// would freeze the fleet.
func NewFleet(flt *fleet.Fleet, runner *fleet.ShardedRunner, pol Policy) (*FleetController, error) {
	fc := &FleetController{flt: flt, runner: runner, ctrls: make(map[string]*Controller)}
	for _, h := range flt.Hosts() {
		if err := fc.attach(h, pol); err != nil {
			fc.Close()
			return nil, err
		}
		fc.names = append(fc.names, h.Name)
	}
	sort.Strings(fc.names)
	return fc, nil
}

// attach builds the host's controller over its current session.
func (fc *FleetController) attach(h *fleet.Host, pol Policy) error {
	opts := Options{Policy: pol, Host: h.Name}
	if len(fc.flt.Hosts()) > 1 {
		opts.Fleet = &hostHook{fc: fc, name: h.Name}
	}
	ctrl, err := New(h.Mgr, SessionActuator{Sess: h.Sess}, opts)
	if err != nil {
		return err
	}
	fc.ctrls[h.Name] = ctrl
	return nil
}

// Rebind replaces the named host's controller with a fresh one over
// the host's current session — after a restore swapped it, the old
// controller would keep watching a stopped manager and acting through
// a dead session. The host's policy carries over.
func (fc *FleetController) Rebind(name string) error {
	old := fc.ctrls[name]
	h := fc.flt.Host(name)
	if old == nil || h == nil {
		return fmt.Errorf("remedy: unknown host %s", name)
	}
	old.Close()
	return fc.attach(h, old.pol)
}

// Close detaches every per-host controller.
func (fc *FleetController) Close() {
	for _, c := range fc.ctrls {
		c.Close()
	}
}

// StepAll runs one control iteration on every host in name order.
// Call it only between epoch barriers.
func (fc *FleetController) StepAll() {
	for _, name := range fc.names {
		fc.ctrls[name].Step()
	}
}

// Controller returns the per-host controller, or nil.
func (fc *FleetController) Controller(host string) *Controller { return fc.ctrls[host] }

// Hosts returns the controlled host names in order.
func (fc *FleetController) Hosts() []string {
	return append([]string(nil), fc.names...)
}

// SetPolicy swaps the policy on every per-host controller.
func (fc *FleetController) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, name := range fc.names {
		fc.ctrls[name].pol = p
	}
	return nil
}

// Policy returns the active policy (uniform across hosts).
func (fc *FleetController) Policy() Policy {
	for _, name := range fc.names {
		return fc.ctrls[name].pol
	}
	return Policy{}
}

// Stats sums the per-host accounting.
func (fc *FleetController) Stats() Stats {
	var out Stats
	for _, name := range fc.names {
		s := fc.ctrls[name].Stats()
		out.Incidents += s.Incidents
		out.Open += s.Open
		out.Resolved += s.Resolved
		out.Proposed += s.Proposed
		out.Executed += s.Executed
		out.Rejected += s.Rejected
		out.Failed += s.Failed
		out.Suppressed += s.Suppressed
		out.Steps += s.Steps
	}
	return out
}

// Degraded reports whether any host has an open incident.
func (fc *FleetController) Degraded() bool {
	for _, name := range fc.names {
		if fc.ctrls[name].Degraded() {
			return true
		}
	}
	return false
}

// MTTRs concatenates per-host MTTR series in host-name order.
func (fc *FleetController) MTTRs() []simtime.Duration {
	var out []simtime.Duration
	for _, name := range fc.names {
		out = append(out, fc.ctrls[name].MTTRs()...)
	}
	return out
}

// hostHook binds fleet-scoped verbs to one host.
type hostHook struct {
	fc   *FleetController
	name string
}

// RebalanceHost migrates this host's anomaly-affected tenants to the
// least-pressured healthy host that will take them, in
// fleet.ByPressure order. Quarantined hosts are never destinations.
func (hk *hostHook) RebalanceHost() (int, error) {
	h := hk.fc.flt.Host(hk.name)
	if h == nil {
		return 0, fmt.Errorf("remedy: unknown host %s", hk.name)
	}
	var eligible func(*fleet.Host) bool
	if hk.fc.runner != nil {
		eligible = hk.fc.runner.Live
	}
	moved := 0
	for _, tenant := range fleet.AffectedTenants(h) {
		for _, dst := range hk.fc.flt.ByPressure(eligible) {
			if dst.Name == hk.name || len(dst.Mgr.Anomaly().Detections()) > 0 {
				continue
			}
			if _, err := hk.fc.flt.Migrate(tenant, dst.Name); err == nil {
				moved++
				break
			}
		}
	}
	return moved, nil
}

// QuarantineHost fences this host out of the epoch loop.
func (hk *hostHook) QuarantineHost(reason string) error {
	if hk.fc.runner == nil {
		return fmt.Errorf("remedy: no runner; cannot quarantine")
	}
	return hk.fc.runner.Quarantine(hk.name, fmt.Errorf("%s", reason))
}
