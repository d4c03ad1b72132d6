package remedy

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

func newSession(t testing.TB) *snap.Session {
	t.Helper()
	sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// advance moves the session's virtual time forward by d, journaled.
func advance(t testing.TB, sess *snap.Session, d simtime.Duration) {
	t.Helper()
	if err := sess.Advance(d); err != nil {
		t.Fatal(err)
	}
}

// warmup runs the session past anomaly calibration so detection is armed.
func warmup(t testing.TB, sess *snap.Session) {
	acfg := core.DefaultOptions().Anomaly
	advance(t, sess, simtime.Duration(acfg.CalibrationRounds+5)*acfg.Period)
}

func newController(t testing.TB, sess *snap.Session, pol Policy) *Controller {
	t.Helper()
	c, err := New(sess.Manager(), SessionActuator{Sess: sess}, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{},
		{Rules: []Rule{{Class: "bogus", Actions: []ActionKind{ActionRollback}}},
			CooldownUs: 0, HysteresisSteps: 1, MaxActionsPerIncident: 1},
		{Rules: []Rule{{Class: ClassAny}},
			CooldownUs: 0, HysteresisSteps: 1, MaxActionsPerIncident: 1},
		{Rules: []Rule{{Class: ClassAny, Actions: []ActionKind{"explode"}}},
			CooldownUs: 0, HysteresisSteps: 1, MaxActionsPerIncident: 1},
		{Rules: []Rule{{Class: ClassAny, Actions: []ActionKind{ActionRollback}}},
			CooldownUs: -1, HysteresisSteps: 1, MaxActionsPerIncident: 1},
		{Rules: []Rule{{Class: ClassAny, Actions: []ActionKind{ActionRollback}}},
			CooldownUs: 0, HysteresisSteps: 0, MaxActionsPerIncident: 1},
		{Rules: []Rule{{Class: ClassAny, Actions: []ActionKind{ActionRollback}}},
			CooldownUs: 0, HysteresisSteps: 1, MaxActionsPerIncident: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	doc := `{"rules":[{"class":"link-fail","actions":["rollback"]}],
		"cooldown_us":50,"hysteresis_steps":3,"max_actions_per_incident":2}`
	p, err := ParsePolicy([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.CooldownUs != 50 || p.HysteresisSteps != 3 || len(p.Rules) != 1 {
		t.Fatalf("parsed %+v", p)
	}
	if _, err := ParsePolicy([]byte(`{"rules":[]}`)); err == nil {
		t.Fatal("empty rule table accepted")
	}
	if _, err := ParsePolicy([]byte(`{nope`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRuleFallback(t *testing.T) {
	p := DefaultPolicy()
	if r := p.rule(ClassLinkFail); r == nil || r.Class != ClassLinkFail {
		t.Fatalf("exact match failed: %+v", r)
	}
	if r := p.rule("something-new"); r == nil || r.Class != ClassAny {
		t.Fatalf("fallback failed: %+v", r)
	}
	noAny := Policy{Rules: []Rule{{Class: ClassLinkFail, Actions: []ActionKind{ActionRollback}}}}
	if r := noAny.rule("something-new"); r != nil {
		t.Fatalf("matched without fallback: %+v", r)
	}
}

// TestClosedLoopRollback is the end-to-end tentpole check on one host:
// a silent degradation on the covered UPI link must be detected,
// localized, rolled back and hysteresis-resolved, with MTTR measured
// from the injection timestamp.
func TestClosedLoopRollback(t *testing.T) {
	sess := newSession(t)
	c := newController(t, sess, DefaultPolicy())
	warmup(t, sess)

	if err := sess.DegradeLink("cpu0->cpu1", 0, 50*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	period := core.DefaultOptions().Anomaly.Period
	for i := 0; i < 200 && c.Degraded() || i < 1; i++ {
		advance(t, sess, period)
		c.Step()
		if s := c.Stats(); s.Resolved > 0 && !c.Degraded() {
			break
		}
	}

	s := c.Stats()
	if s.Incidents != 1 {
		t.Fatalf("incidents = %d, want 1 (%+v)", s.Incidents, s)
	}
	if s.Resolved != 1 || c.Degraded() {
		t.Fatalf("incident not resolved: %+v", s)
	}
	if s.Executed == 0 {
		t.Fatalf("no action executed: %+v", s)
	}
	ins := c.Incidents()
	if len(ins) != 1 {
		t.Fatalf("incident list %+v", ins)
	}
	in := ins[0]
	if !in.FaultKnown || !in.Detected || !in.Resolved {
		t.Fatalf("incident lifecycle incomplete: %+v", in)
	}
	if in.Class != ClassLinkDegrade {
		t.Fatalf("class %q, want link-degrade", in.Class)
	}
	if !in.Covered {
		t.Fatal("UPI link should be heartbeat-covered")
	}
	// Stage ordering: fault <= detect <= localize <= plan <= act <= resolved.
	if in.DetectAt < in.FaultAt || in.LocalizeAt < in.DetectAt ||
		in.PlanAt < in.LocalizeAt || in.ActAt < in.PlanAt || in.ResolvedAt < in.ActAt {
		t.Fatalf("stage timestamps out of order: %+v", in)
	}
	mttr, ok := in.MTTR()
	if !ok || mttr <= 0 {
		t.Fatalf("MTTR = %v ok=%v", mttr, ok)
	}
	if got := in.ResolvedAt.Sub(in.FaultAt); got != mttr {
		t.Fatalf("MTTR %v != resolved-fault %v (fault-known basis)", mttr, got)
	}
	if ds := c.MTTRs(); len(ds) != 1 || ds[0] != mttr {
		t.Fatalf("MTTRs() = %v, want [%v]", ds, mttr)
	}
	if len(sess.Manager().Fabric().UnhealthyLinks()) != 0 {
		t.Fatal("link not actually restored")
	}
	var rolled bool
	for _, a := range in.Actions {
		if a.Action == ActionRollback && a.Err == "" {
			rolled = true
		}
	}
	if !rolled {
		t.Fatalf("no successful rollback in %+v", in.Actions)
	}
}

// noopActuator pretends to act but changes nothing, so incidents stay
// open and the anti-flap guards are observable.
type noopActuator struct{ calls int }

func (a *noopActuator) RestoreLink(string) error { a.calls++; return nil }
func (a *noopActuator) MigrateTenant(string, []intent.Target, []string) error {
	a.calls++
	return nil
}
func (a *noopActuator) EvictTenant(string) error { a.calls++; return nil }

// detectIncident warms up, injects a degrade and waits for anomaly
// detection so the controller has a localized incident to plan for.
func detectIncident(t *testing.T, sess *snap.Session) {
	t.Helper()
	warmup(t, sess)
	if err := sess.DegradeLink("cpu0->cpu1", 0, 50*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	period := core.DefaultOptions().Anomaly.Period
	plat := sess.Manager().Anomaly()
	for i := 0; i < 50 && plat.DetectionCount() == 0; i++ {
		advance(t, sess, period)
	}
	if plat.DetectionCount() == 0 {
		t.Fatal("degradation never detected")
	}
}

func TestCooldownSuppressesRepeatActions(t *testing.T) {
	sess := newSession(t)
	pol := DefaultPolicy()
	pol.CooldownUs = 10_000 // 10ms: far longer than the test horizon
	act := &noopActuator{}
	c, err := New(sess.Manager(), act, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	detectIncident(t, sess)

	for i := 0; i < 5; i++ {
		advance(t, sess, 10*simtime.Microsecond)
		c.Step()
	}
	s := c.Stats()
	if s.Executed != 1 {
		t.Fatalf("executed %d actions under cooldown, want exactly 1 (%+v)", s.Executed, s)
	}
	if s.Suppressed == 0 {
		t.Fatalf("cooldown never suppressed: %+v", s)
	}
}

func TestEscalationCap(t *testing.T) {
	sess := newSession(t)
	pol := DefaultPolicy()
	pol.CooldownUs = 0
	pol.MaxActionsPerIncident = 2
	act := &noopActuator{}
	c, err := New(sess.Manager(), act, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	detectIncident(t, sess)

	for i := 0; i < 6; i++ {
		advance(t, sess, 10*simtime.Microsecond)
		c.Step()
	}
	s := c.Stats()
	if s.Executed != 2 {
		t.Fatalf("executed %d, want cap of 2 (%+v)", s.Executed, s)
	}
	if s.Suppressed == 0 {
		t.Fatalf("cap never suppressed: %+v", s)
	}
}

// TestHysteresisEndpoint pins the MTTR endpoint semantics: the clock
// stops at the first step of the healthy run, not at the
// hysteresis-confirmation step.
func TestHysteresisEndpoint(t *testing.T) {
	sess := newSession(t)
	pol := DefaultPolicy()
	pol.HysteresisSteps = 3
	c := newController(t, sess, pol)
	warmup(t, sess)

	in := &Incident{Subject: "phantom", Class: ClassLinkFail,
		Detected: true, DetectAt: sess.Now()}
	c.openIncident(in)

	advance(t, sess, 10*simtime.Microsecond)
	first := sess.Now()
	c.Step() // healthy step 1
	if in.Resolved {
		t.Fatal("resolved before hysteresis")
	}
	advance(t, sess, 10*simtime.Microsecond)
	c.Step() // healthy step 2
	if in.Resolved {
		t.Fatal("resolved before hysteresis")
	}
	advance(t, sess, 10*simtime.Microsecond)
	c.Step() // healthy step 3: confirm
	if !in.Resolved {
		t.Fatal("not resolved after hysteresis steps")
	}
	if in.ResolvedAt != first {
		t.Fatalf("ResolvedAt = %v, want first healthy step %v", in.ResolvedAt, first)
	}
}

// TestMigratePlanAndExecute drives the dry-run planner against a live
// placement: a tenant whose pathway crosses an avoidable link must be
// re-placed off the suspect while the fault persists.
func TestMigratePlanAndExecute(t *testing.T) {
	sess := newSession(t)
	m := sess.Manager()
	c := newController(t, sess, DefaultPolicy())
	if _, err := sess.Admit("t1", []intent.Target{
		{Src: "cpu0", Dst: intent.AnyMemory, Rate: topology.GBps(5)},
	}); err != nil {
		t.Fatal(err)
	}
	tn := m.Tenant("t1")
	if tn == nil || len(tn.Assignments) != 1 || len(tn.Assignments[0].Path.Links) < 3 {
		t.Fatalf("unexpected placement %+v", tn)
	}
	// The middle hop (llc -> memctrl) is avoidable: other memory
	// controllers and the far socket provide alternative pathways.
	subject := c.canonical(string(tn.Assignments[0].Path.Links[1].ID))

	if got := c.affectedTenants(subject); len(got) != 1 || got[0].ID != "t1" {
		t.Fatalf("affectedTenants(%s) = %+v", subject, got)
	}

	in := &Incident{Subject: subject, Class: ClassLinkDegrade, Detected: true}
	cands := c.plan(in, c.pol.rule(ClassLinkDegrade))
	if len(cands) != 2 {
		t.Fatalf("candidates %+v", cands)
	}
	var migrate *candidate
	for i := range cands {
		if cands[i].action == ActionMigrate {
			migrate = &cands[i]
		}
	}
	if migrate == nil || migrate.exec == nil {
		t.Fatalf("migrate infeasible: %+v", cands)
	}
	detail, err := migrate.exec()
	if err != nil {
		t.Fatalf("migrate exec: %v (%s)", err, detail)
	}
	if !strings.Contains(detail, "re-placed 1/1") {
		t.Fatalf("detail %q", detail)
	}
	moved := m.Tenant("t1")
	if moved == nil {
		t.Fatal("tenant lost by migration")
	}
	if tenantTraverses(moved, subject, c.reverse(subject)) {
		t.Fatalf("migrated placement still traverses %s: %+v", subject, moved.Assignments)
	}
}

// TestFleetClosedLoop runs per-host controllers over a session-backed
// fleet: the faulted host heals through its own journaled session and
// the healthy host stays untouched.
func TestFleetClosedLoop(t *testing.T) {
	flt := fleet.New()
	sessions := map[string]*snap.Session{}
	for _, name := range []string{"a", "b"} {
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: core.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flt.AddSession(name, sess); err != nil {
			t.Fatal(err)
		}
		sessions[name] = sess
	}
	fc, err := NewFleet(flt, nil, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	runner := fleet.NewShardedRunner(flt, fleet.ShardConfig{})
	runFor := func(d simtime.Duration) {
		if _, err := runner.RunFor(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}

	acfg := core.DefaultOptions().Anomaly
	runFor(simtime.Duration(acfg.CalibrationRounds+5) * acfg.Period)
	if err := sessions["a"].DegradeLink("cpu0->cpu1", 0, 50*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		runFor(acfg.Period)
		fc.StepAll()
		if s := fc.Stats(); s.Resolved > 0 && !fc.Degraded() {
			break
		}
	}
	s := fc.Stats()
	if s.Resolved != 1 || fc.Degraded() {
		t.Fatalf("fleet incident not resolved: %+v", s)
	}
	if sb := fc.Controller("b").Stats(); sb.Incidents != 0 {
		t.Fatalf("healthy host opened incidents: %+v", sb)
	}
	// The remediation is journaled on the faulted host: the restore
	// command must appear in its replayable command stream.
	var restored bool
	for _, e := range sessions["a"].Journal().Entries {
		if e.Kind == snap.KindRestoreLink {
			restored = true
		}
	}
	if !restored {
		t.Fatal("remediation did not journal a restore-link entry")
	}
	if len(fc.MTTRs()) != 1 {
		t.Fatalf("fleet MTTRs %v", fc.MTTRs())
	}
}

func TestPercentile(t *testing.T) {
	ds := []simtime.Duration{40, 10, 30, 20}
	if p := Percentile(ds, 50); p != 20 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(ds, 100); p != 40 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(nil, 99); p != 0 {
		t.Fatalf("empty p99 = %v", p)
	}
	if ds[0] != 40 {
		t.Fatal("Percentile mutated its input")
	}
}
