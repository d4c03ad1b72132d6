package remedy

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Actuator executes remediation verbs. SessionActuator is the one
// implementation: every action becomes a journal entry and a
// correlated span.
type Actuator interface {
	RestoreLink(link string) error
	// MigrateTenant re-places an admitted tenant's intents while
	// avoiding the named links (both directions are implied by each
	// entry). Implementations must not lose the tenant on failure.
	MigrateTenant(tenant string, targets []intent.Target, avoid []string) error
	EvictTenant(tenant string) error
}

// SessionActuator executes through the journaled snap.Session path:
// every remediation is a journal entry, replayable and span-correlated.
type SessionActuator struct{ Sess *snap.Session }

// RestoreLink implements Actuator.
func (a SessionActuator) RestoreLink(link string) error { return a.Sess.RestoreLink(link) }

// MigrateTenant implements Actuator: evict, then re-admit under the
// avoid constraint. If the constrained re-admission fails (the planner
// should have prevented this), the tenant is re-admitted without the
// constraint so it is never lost; only successful admissions journal.
func (a SessionActuator) MigrateTenant(tenant string, targets []intent.Target, avoid []string) error {
	if err := a.Sess.Evict(tenant); err != nil {
		return err
	}
	if _, err := a.Sess.AdmitAvoiding(tenant, targets, avoid); err != nil {
		if _, err2 := a.Sess.Admit(tenant, targets); err2 != nil {
			return fmt.Errorf("remedy: constrained re-admit: %v; recovery re-admit: %v", err, err2)
		}
		return err
	}
	return nil
}

// EvictTenant implements Actuator.
func (a SessionActuator) EvictTenant(tenant string) error { return a.Sess.Evict(tenant) }

// FleetHook gives a per-host controller access to fleet-scoped verbs.
// Nil on single hosts; the fleet controller binds one per host.
type FleetHook interface {
	// RebalanceHost migrates this host's affected tenants to healthy
	// hosts; returns how many moved.
	RebalanceHost() (int, error)
	// QuarantineHost fences this host out of the epoch loop.
	QuarantineHost(reason string) error
}

// ActionRecord is one executed (or failed) remediation.
type ActionRecord struct {
	At     simtime.Time `json:"at_ns"`
	Action ActionKind   `json:"action"`
	Detail string       `json:"detail,omitempty"`
	Err    string       `json:"error,omitempty"`
}

// Incident is the controller's record of one fault, from injection to
// invariant restored.
type Incident struct {
	// Subject is the canonical (lexicographically smaller direction)
	// link ID the incident is keyed on.
	Subject string `json:"subject"`
	Class   string `json:"class"`
	// Covered reports whether the heartbeat mesh traverses the subject
	// at all: an uncovered fault is invisible to §3.1 monitoring and
	// the controller cannot be expected to remediate it.
	Covered bool `json:"covered"`
	// FaultKnown is true when the controller observed the injection
	// trace event; MTTR is then measured from FaultAt, otherwise from
	// DetectAt (the earliest the system could know).
	FaultKnown bool           `json:"fault_known"`
	FaultAt    simtime.Time   `json:"fault_at_ns"`
	DetectAt   simtime.Time   `json:"detect_at_ns"`
	LocalizeAt simtime.Time   `json:"localize_at_ns"`
	PlanAt     simtime.Time   `json:"plan_at_ns"`
	ActAt      simtime.Time   `json:"act_at_ns"`
	ResolvedAt simtime.Time   `json:"resolved_at_ns"`
	Resolved   bool           `json:"resolved"`
	Detected   bool           `json:"detected"`
	Actions    []ActionRecord `json:"actions,omitempty"`

	// healthySteps counts consecutive steps the invariant held;
	// firstHealthyAt is when the current healthy run began (that
	// instant, not the hysteresis-confirmed one, is the MTTR endpoint).
	healthySteps   int
	firstHealthyAt simtime.Time
	executed       int
	// rolledBackAt is the last successful link restore, so a fault
	// event arriving after a completed repair reads as a re-injection
	// (new episode) rather than a continuation.
	rolledBackAt simtime.Time
}

// MTTR returns the incident's measured time to repair, and whether it
// is meaningful (resolved).
func (in *Incident) MTTR() (simtime.Duration, bool) {
	if !in.Resolved {
		return 0, false
	}
	basis := in.DetectAt
	if in.FaultKnown {
		basis = in.FaultAt
	}
	return in.ResolvedAt.Sub(basis), true
}

// Stats is the controller's cumulative accounting.
type Stats struct {
	Incidents  int    `json:"incidents"`
	Open       int    `json:"open"`
	Resolved   int    `json:"resolved"`
	Proposed   uint64 `json:"actions_proposed"`
	Executed   uint64 `json:"actions_executed"`
	Rejected   uint64 `json:"actions_rejected"`
	Failed     uint64 `json:"actions_failed"`
	Suppressed uint64 `json:"actions_suppressed"`
	Steps      uint64 `json:"steps"`
}

// Controller is the closed remediation loop over one host. It is not
// goroutine-safe: callers serialize Step with every other access, the
// same discipline the snap.Session demands. Step must be invoked at
// deterministic virtual times (after each chaos advance, between fleet
// epoch barriers) for journals to reproduce across runs.
type Controller struct {
	mgr    *core.Manager
	act    Actuator
	pol    Policy
	host   string
	fleet  FleetHook
	sub    *obs.Subscription
	topo   *topology.Topology
	tracer *obs.Tracer

	open      map[string]*Incident
	order     []string // insertion-ordered open subjects
	archive   []*Incident
	lastTouch map[string]simtime.Time
	detIdx    int
	stats     Stats

	hMTTR     *obs.Histogram
	hDetect   *obs.Histogram
	hLocalize *obs.Histogram
	hPlan     *obs.Histogram
	hAct      *obs.Histogram
	hStepWall *obs.Histogram
	cProposed *obs.Counter
	cExecuted *obs.Counter
	cRejected *obs.Counter
	cFailed   *obs.Counter
	cSuppress *obs.Counter
	cIncident *obs.Counter
	cResolved *obs.Counter
}

// Options configures a controller.
type Options struct {
	Policy Policy
	// Host names this controller's host in trace events (fleet scope).
	Host string
	// Fleet, when set, enables the fleet-scoped actions.
	Fleet FleetHook
}

// New attaches a controller to a manager, subscribing to the host's
// event bus for fault and verdict events. Actions run through act.
func New(mgr *core.Manager, act Actuator, opts Options) (*Controller, error) {
	if err := opts.Policy.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		mgr: mgr, act: act, pol: opts.Policy, host: opts.Host, fleet: opts.Fleet,
		sub: mgr.Obs().Bus.Subscribe(), topo: mgr.Topology(), tracer: mgr.Obs().Tracer,
		open:      make(map[string]*Incident),
		lastTouch: make(map[string]simtime.Time),
	}
	reg := mgr.Obs().Registry
	c.hMTTR = reg.Histogram("ihnet_remedy_mttr_us",
		"Virtual microseconds from fault injection (or detection, when the injection was unobserved) to invariant restored.")
	c.hDetect = reg.Histogram("ihnet_remedy_stage_detect_us",
		"Virtual microseconds from fault injection to anomaly detection.")
	c.hLocalize = reg.Histogram("ihnet_remedy_stage_localize_us",
		"Virtual microseconds from detection to localization.")
	c.hPlan = reg.Histogram("ihnet_remedy_stage_plan_us",
		"Virtual microseconds from localization to the first plan decision.")
	c.hAct = reg.Histogram("ihnet_remedy_stage_act_us",
		"Virtual microseconds from plan decision to action executed.")
	c.hStepWall = reg.Histogram("ihnet_remedy_step_wall_latency_us",
		"Wall microseconds per controller step (the loop's CPU overhead).")
	c.cProposed = reg.Counter("ihnet_remedy_actions_proposed_total",
		"Candidate actions scored by the dry-run planner.")
	c.cExecuted = reg.Counter("ihnet_remedy_actions_executed_total",
		"Remediation actions executed.")
	c.cRejected = reg.Counter("ihnet_remedy_actions_rejected_total",
		"Candidate actions rejected as inapplicable or infeasible.")
	c.cFailed = reg.Counter("ihnet_remedy_actions_failed_total",
		"Executed actions that returned an error.")
	c.cSuppress = reg.Counter("ihnet_remedy_actions_suppressed_total",
		"Action opportunities suppressed by cooldown or escalation caps.")
	c.cIncident = reg.Counter("ihnet_remedy_incidents_total",
		"Incidents opened (fault events and localized anomalies).")
	c.cResolved = reg.Counter("ihnet_remedy_incidents_resolved_total",
		"Incidents whose invariant was restored.")
	reg.GaugeFunc("ihnet_remedy_incidents_open",
		"Incidents currently open.",
		func() float64 { return float64(len(c.open)) })
	return c, nil
}

// Close detaches the bus subscription.
func (c *Controller) Close() {
	if c.sub != nil {
		c.sub.Close()
	}
}

// Policy returns the active policy.
func (c *Controller) Policy() Policy { return c.pol }

// SetPolicy swaps the rule table after validating it.
func (c *Controller) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.pol = p
	return nil
}

// Stats returns cumulative accounting.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.Open = len(c.open)
	return s
}

// Incidents returns all incidents, archived first, then open in
// insertion order. The returned records are copies.
func (c *Controller) Incidents() []Incident {
	out := make([]Incident, 0, len(c.archive)+len(c.order))
	for _, in := range c.archive {
		out = append(out, *in)
	}
	for _, s := range c.order {
		out = append(out, *c.open[s])
	}
	return out
}

// Degraded reports whether any incident is open — the healthz signal.
func (c *Controller) Degraded() bool { return len(c.open) > 0 }

// canonical maps a directed link ID to the incident key: the
// lexicographically smaller of the two directions, so fault events and
// localization verdicts that name opposite directions meet on one
// incident.
func (c *Controller) canonical(id string) string {
	if l := c.topo.Link(topology.LinkID(id)); l != nil && string(l.Reverse) < id {
		return string(l.Reverse)
	}
	return id
}

// reverse returns the opposite direction of a link ID (itself when the
// topology does not know the link).
func (c *Controller) reverse(id string) string {
	if l := c.topo.Link(topology.LinkID(id)); l != nil {
		return string(l.Reverse)
	}
	return id
}

// Step runs one deterministic control iteration: drain verdict events,
// update incident lifecycles, plan and act. The wall cost of the whole
// iteration lands in ihnet_remedy_step_wall_latency_us.
func (c *Controller) Step() {
	start := time.Now()
	now := c.mgr.Engine().Now()
	c.stats.Steps++
	c.drainEvents()
	c.observeDetections()
	c.localizeFromRanking(now)
	c.updateIncidents(now)
	c.planAndAct(now)
	c.hStepWall.Observe(float64(time.Since(start)) / 1e3)
}

// drainEvents consumes the bus: fault injections open incidents with
// exact virtual timestamps; detection events trigger a structured read
// of the platform's verdicts.
func (c *Controller) drainEvents() {
	for _, be := range c.sub.Drain() {
		ev := be.Event
		switch ev.Kind {
		case obs.KindLinkFail:
			c.observeFault(ev, ClassLinkFail)
		case obs.KindLinkDegrade:
			c.observeFault(ev, ClassLinkDegrade)
		}
	}
}

// observeFault opens (or escalates) the incident for an injected
// fault. The event's virtual timestamp is the MTTR clock's start.
func (c *Controller) observeFault(ev obs.Event, class string) {
	subject := c.canonical(ev.Subject)
	if in, ok := c.open[subject]; ok {
		// A degrade escalating to a hard failure keeps the original
		// fault timestamp: the incident began at the first injection.
		if class == ClassLinkFail {
			in.Class = ClassLinkFail
		}
		// A fault landing after a completed repair (the link was
		// restored, even if hysteresis had not confirmed yet) is a
		// re-injection: the MTTR clock re-arms for the new episode and
		// the escalation budget resets with it — the cooldown, not the
		// per-episode cap, is what paces a break-fix-break adversary.
		if in.healthySteps > 0 || in.rolledBackAt > in.FaultAt {
			in.FaultKnown = true
			in.FaultAt = ev.Virtual
			in.executed = 0
		}
		in.healthySteps = 0
		return
	}
	c.openIncident(&Incident{
		Subject: subject, Class: class,
		Covered:    c.mgr.Anomaly().CoversLink(topology.LinkID(ev.Subject)),
		FaultKnown: true, FaultAt: ev.Virtual,
	})
}

// observeDetections folds new anomaly verdicts into incidents. A
// detection carries a ranked suspect list, and in a tree topology the
// top rank often lands on a shared upstream link rather than the
// faulted one, so the controller cross-checks the ranking against the
// fabric's link health: every open incident named anywhere in the
// ranking is stamped localized, and a new incident opens on the
// highest-ranked suspect the fabric corroborates as unhealthy.
func (c *Controller) observeDetections() {
	plat := c.mgr.Anomaly()
	if plat.DetectionCount() == c.detIdx {
		return
	}
	dets := plat.Detections()
	unhealthy := c.unhealthySet()
	for ; c.detIdx < len(dets); c.detIdx++ {
		d := dets[c.detIdx]
		for _, s := range d.Suspects {
			subject := c.canonical(string(s.Link))
			if in, ok := c.open[subject]; ok {
				c.markDetected(in, d.At)
				in.healthySteps = 0
			}
		}
		for _, s := range d.Suspects {
			subject := c.canonical(string(s.Link))
			if _, ok := c.open[subject]; ok {
				continue
			}
			if !unhealthy[subject] && !unhealthy[c.reverse(subject)] {
				continue // mis-localization: the fabric says healthy
			}
			class := ClassLinkDegrade
			if d.Lost {
				class = ClassLinkFail
			}
			in := &Incident{
				Subject: subject, Class: class,
				Covered: true, // it was just localized, so it is covered
			}
			c.openIncident(in)
			c.markDetected(in, d.At)
			break
		}
	}
}

// localizeFromRanking consults the live suspect ranking for open
// incidents that no detection event has localized yet. Detections are
// edge-triggered per pair: a fault arriving while every covering pair
// is already alerted fires no new detection, but the voting ranking
// still converges on it.
func (c *Controller) localizeFromRanking(now simtime.Time) {
	pending := false
	for _, subject := range c.order {
		if !c.open[subject].Detected {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	for _, s := range c.mgr.Anomaly().Suspects() {
		subject := c.canonical(string(s.Link))
		if in, ok := c.open[subject]; ok && !in.Detected {
			c.markDetected(in, now)
		}
	}
}

// markDetected stamps detect/localize on first localization.
func (c *Controller) markDetected(in *Incident, at simtime.Time) {
	if in.Detected {
		return
	}
	in.Detected = true
	in.DetectAt = at
	in.LocalizeAt = at
	if in.FaultKnown {
		c.hDetect.Observe(float64(in.DetectAt.Sub(in.FaultAt)) / float64(simtime.Microsecond))
	}
	c.hLocalize.Observe(float64(in.LocalizeAt.Sub(in.DetectAt)) / float64(simtime.Microsecond))
}

// unhealthySet snapshots the fabric's failed/degraded directed links.
func (c *Controller) unhealthySet() map[string]bool {
	out := make(map[string]bool)
	for _, id := range c.mgr.Fabric().UnhealthyLinks() {
		out[string(id)] = true
	}
	return out
}

func (c *Controller) openIncident(in *Incident) {
	c.open[in.Subject] = in
	c.order = append(c.order, in.Subject)
	c.stats.Incidents++
	c.cIncident.Inc()
}

// updateIncidents applies the resolve check: an incident is healthy
// when its link carries no failure or degradation in either direction
// and no alerted heartbeat pair still implicates it — an alerted pair
// whose path crosses a different currently-unhealthy link is explained
// by that fault, not this one, so it does not hold the incident open.
// HysteresisSteps consecutive healthy steps resolve it; the MTTR
// endpoint is the first step of that run, not the confirmation step.
func (c *Controller) updateIncidents(now simtime.Time) {
	if len(c.open) == 0 {
		return
	}
	unhealthy := c.unhealthySet()
	otherUnhealthy := func(l topology.LinkID) bool { return unhealthy[string(l)] }
	plat := c.mgr.Anomaly()
	kept := c.order[:0]
	for _, subject := range c.order {
		in := c.open[subject]
		healthy := !unhealthy[subject] && !unhealthy[c.reverse(subject)] &&
			!plat.AlertedAttributableToLink(topology.LinkID(subject), otherUnhealthy)
		if !healthy {
			in.healthySteps = 0
			kept = append(kept, subject)
			continue
		}
		if in.healthySteps == 0 {
			in.firstHealthyAt = now
		}
		in.healthySteps++
		if in.healthySteps < c.pol.HysteresisSteps {
			kept = append(kept, subject)
			continue
		}
		in.Resolved = true
		in.ResolvedAt = in.firstHealthyAt
		mttr, _ := in.MTTR()
		c.hMTTR.Observe(float64(mttr) / float64(simtime.Microsecond))
		c.stats.Resolved++
		c.cResolved.Inc()
		c.lastTouch[subject] = now
		delete(c.open, subject)
		c.archive = append(c.archive, in)
		if c.tracer.Enabled() {
			c.tracer.Emit(obs.Event{
				Kind: obs.KindRemedyResolve, Virtual: now,
				Subject: subject, Host: c.host,
				Detail: fmt.Sprintf("class=%s actions=%d", in.Class, in.executed),
				Value:  float64(mttr) / float64(simtime.Microsecond),
			})
		}
	}
	c.order = kept
}

// candidate is one scored planner output.
type candidate struct {
	action ActionKind
	score  float64
	detail string
	// exec runs the action; set only on applicable candidates.
	exec func() (string, error)
}

// planAndAct plans and executes at most one action per open, localized
// incident per step, under the cooldown and escalation guards.
func (c *Controller) planAndAct(now simtime.Time) {
	for _, subject := range c.order {
		in := c.open[subject]
		if !in.Detected || in.Resolved {
			continue
		}
		if in.executed >= c.pol.MaxActionsPerIncident {
			c.stats.Suppressed++
			c.cSuppress.Inc()
			continue
		}
		if last, ok := c.lastTouch[subject]; ok {
			if now.Sub(last) < simtime.Duration(c.pol.CooldownUs)*simtime.Microsecond {
				c.stats.Suppressed++
				c.cSuppress.Inc()
				continue
			}
		}
		rule := c.pol.rule(in.Class)
		if rule == nil {
			continue
		}
		cands := c.plan(in, rule)
		c.stats.Proposed += uint64(len(cands))
		c.cProposed.Add(uint64(len(cands)))
		best := -1
		for i, cd := range cands {
			if cd.exec == nil {
				c.stats.Rejected++
				c.cRejected.Inc()
				continue
			}
			if best < 0 || cd.score > cands[best].score {
				best = i
			}
		}
		if in.PlanAt == 0 {
			in.PlanAt = now
			c.hPlan.Observe(float64(now.Sub(in.LocalizeAt)) / float64(simtime.Microsecond))
		}
		if c.tracer.Enabled() {
			c.tracer.Emit(obs.Event{
				Kind: obs.KindRemedyPlan, Virtual: now,
				Subject: subject, Host: c.host,
				Detail: planDetail(cands, best),
				Value:  float64(len(cands)),
			})
		}
		if best < 0 {
			continue
		}
		chosen := cands[best]
		detail, err := chosen.exec()
		rec := ActionRecord{At: now, Action: chosen.action, Detail: detail}
		if err != nil {
			rec.Err = err.Error()
			c.stats.Failed++
			c.cFailed.Inc()
		} else {
			in.executed++
			c.stats.Executed++
			c.cExecuted.Inc()
			if chosen.action == ActionRollback {
				in.rolledBackAt = now
			}
			if in.ActAt == 0 {
				in.ActAt = now
				c.hAct.Observe(float64(now.Sub(in.PlanAt)) / float64(simtime.Microsecond))
			}
		}
		in.Actions = append(in.Actions, rec)
		c.lastTouch[subject] = now
		if c.tracer.Enabled() {
			ev := obs.Event{
				Kind: obs.KindRemedyAct, Virtual: now,
				Subject: subject, Host: c.host,
				Detail: string(chosen.action) + ": " + detail,
			}
			if err != nil {
				ev.Detail = string(chosen.action) + " failed: " + err.Error()
			}
			c.tracer.Emit(ev)
		}
	}
}

func planDetail(cands []candidate, best int) string {
	var b strings.Builder
	for i, cd := range cands {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s=%.1f", cd.action, cd.score)
		if cd.exec == nil {
			b.WriteString(" (" + cd.detail + ")")
		}
	}
	if best >= 0 {
		b.WriteString(" -> " + string(cands[best].action))
	} else {
		b.WriteString(" -> none")
	}
	return b.String()
}

// plan scores each candidate action in the rule, dry-running against
// current fabric/arbiter state. Base score encodes rule order; the
// feasibility component (0..10) comes from the dry run.
func (c *Controller) plan(in *Incident, rule *Rule) []candidate {
	subject := in.Subject
	avoid := []string{subject, c.reverse(subject)}
	affected := c.affectedTenants(subject)
	unhealthy := c.linkUnhealthy(subject)
	out := make([]candidate, 0, len(rule.Actions))
	for i, action := range rule.Actions {
		base := float64(len(rule.Actions)-i) * 10
		cd := candidate{action: action}
		switch action {
		case ActionRollback:
			if !unhealthy {
				cd.detail = "link already healthy"
				break
			}
			cd.score = base + 9
			cd.exec = func() (string, error) {
				if err := c.act.RestoreLink(subject); err != nil {
					return "", err
				}
				if rev := c.reverse(subject); rev != subject {
					if err := c.act.RestoreLink(rev); err != nil {
						return "", err
					}
				}
				return "restored " + subject, nil
			}
		case ActionMigrate:
			if len(affected) == 0 {
				cd.detail = "no affected tenants"
				break
			}
			movable := make([]*core.Tenant, 0, len(affected))
			for _, t := range affected {
				if _, err := c.mgr.PlanAdmission(t.ID, cloneTargets(t.Targets), linkIDs(avoid)); err == nil {
					movable = append(movable, t)
				}
			}
			if len(movable) == 0 {
				cd.detail = "no alternative placement avoids the suspect"
				break
			}
			frac := float64(len(movable)) / float64(len(affected))
			cd.score = base + 4 + 5*frac
			cd.exec = func() (string, error) {
				moved := 0
				var firstErr error
				for _, t := range movable {
					err := c.act.MigrateTenant(string(t.ID), cloneTargets(t.Targets), avoid)
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						continue
					}
					moved++
				}
				return fmt.Sprintf("re-placed %d/%d tenant(s) off %s", moved, len(movable), subject), firstErr
			}
		case ActionEvict:
			if len(affected) == 0 {
				cd.detail = "no affected tenants"
				break
			}
			cd.score = base + 1
			cd.exec = func() (string, error) {
				evicted := 0
				var firstErr error
				for _, t := range affected {
					if err := c.act.EvictTenant(string(t.ID)); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						continue
					}
					evicted++
				}
				return fmt.Sprintf("evicted %d tenant(s)", evicted), firstErr
			}
		case ActionRebalance:
			if c.fleet == nil {
				cd.detail = "no fleet scope"
				break
			}
			if len(affected) == 0 {
				cd.detail = "no affected tenants"
				break
			}
			cd.score = base + 3
			cd.exec = func() (string, error) {
				moved, err := c.fleet.RebalanceHost()
				return fmt.Sprintf("fleet rebalanced %d tenant(s)", moved), err
			}
		case ActionQuarantine:
			if c.fleet == nil {
				cd.detail = "no fleet scope"
				break
			}
			if in.executed < 2 {
				cd.detail = "quarantine only after escalation"
				break
			}
			cd.score = base + 0.5
			cd.exec = func() (string, error) {
				err := c.fleet.QuarantineHost("remedy: incident " + subject)
				return "host quarantined", err
			}
		}
		out = append(out, cd)
	}
	return out
}

func (c *Controller) linkUnhealthy(subject string) bool {
	rev := c.reverse(subject)
	for _, id := range c.mgr.Fabric().UnhealthyLinks() {
		if string(id) == subject || string(id) == rev {
			return true
		}
	}
	return false
}

// affectedTenants returns admitted tenants whose placed pathways
// traverse the subject in either direction, sorted by ID.
func (c *Controller) affectedTenants(subject string) []*core.Tenant {
	rev := c.reverse(subject)
	var out []*core.Tenant
	for _, t := range c.mgr.Tenants() { // already ID-sorted
		if tenantTraverses(t, subject, rev) {
			out = append(out, t)
		}
	}
	return out
}

func tenantTraverses(t *core.Tenant, subject, rev string) bool {
	onPath := func(p topology.Path) bool {
		for _, l := range p.Links {
			if string(l.ID) == subject || string(l.ID) == rev {
				return true
			}
		}
		return false
	}
	for _, a := range t.Assignments {
		if len(a.Splits) > 0 {
			for _, s := range a.Splits {
				if onPath(s.Path) {
					return true
				}
			}
			continue
		}
		if onPath(a.Path) {
			return true
		}
	}
	return false
}

func cloneTargets(ts []intent.Target) []intent.Target {
	out := make([]intent.Target, len(ts))
	copy(out, ts)
	return out
}

func linkIDs(ss []string) []topology.LinkID {
	out := make([]topology.LinkID, len(ss))
	for i, s := range ss {
		out[i] = topology.LinkID(s)
	}
	return out
}

// MTTRs returns the resolved incidents' MTTRs in resolution order —
// the benchjson trajectory's raw series.
func (c *Controller) MTTRs() []simtime.Duration {
	var out []simtime.Duration
	for _, in := range c.archive {
		if d, ok := in.MTTR(); ok {
			out = append(out, d)
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of a duration
// series; 0 when empty. Sorting copies the input.
func Percentile(ds []simtime.Duration, p float64) simtime.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := make([]simtime.Duration, len(ds))
	copy(s, ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s)-1) * p / 100)
	return s[idx]
}
