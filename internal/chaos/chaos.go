// Package chaos is a seeded fault-injection harness with a
// cross-layer invariant oracle. The engine drives randomized schedules
// over the full manager stack — link failures and restores, silent
// degradations, config drift, tenant admit/evict churn, workload and
// probe traffic spikes — through the same journal path real commands
// use (snap.Session). A run is therefore a pure function of its seed:
// any invariant violation is reproducible from (config, journal) alone
// and minimizable by journal reduction, never "flaky".
//
// After every injected event the oracle checks:
//
//   - per-link allocated rate never exceeds effective capacity;
//   - byte accounting conserves (link totals equal per-tenant sums);
//   - installed caps never dip below guarantees, in both modes;
//   - work-conserving mode does not strand idle capacity while a
//     tenant is pinned at its cap with unmet demand (eventual);
//   - snapshot -> restore reproduces the state hash mid-chaos;
//   - the anomaly detector localizes covered hard failures within a
//     bounded number of heartbeat rounds, and stops reporting lost
//     heartbeats once every failure is restored;
//   - a live event-stream subscriber riding along for the whole run
//     sees a view consistent with the journal: bus sequences increase,
//     delivered + dropped equals published, and every streamed span
//     names a journaled command (sse-consistency).
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives the injection schedule (and, perturbed per host, the
	// managers under test). Equal configs give byte-identical journals.
	Seed int64
	// Events is the number of injected mutations.
	Events int
	// Duration spreads the events over virtual time.
	Duration simtime.Duration
	// Preset names the host topology (topology.Presets).
	Preset string
	// Mode selects the arbitration policy under test.
	Mode arbiter.Mode
	// Hosts > 1 runs fleet chaos over the parallel Runner.
	Hosts int
	// Workers is the fleet runner's worker count (fleet mode only).
	Workers int
	// Oracle tunes the invariant checker.
	Oracle OracleConfig
	// VsController arms a remediation controller over every host: the
	// chaos schedule becomes the adversary and every eligible injected
	// fault (covered hard failure, or any detected anomaly) must be
	// remediated within RemedyDeadline. The controller acts through the
	// same journal path as the injector, so runs stay seed-pure.
	VsController bool
	// RemedyDeadline bounds fault-injection to invariant-restored
	// (virtual time). Zero defaults to 2ms.
	RemedyDeadline simtime.Duration
	// RemedyPolicy overrides the controller rule table; nil uses
	// remedy.DefaultPolicy().
	RemedyPolicy *remedy.Policy
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 500
	}
	if c.Duration <= 0 {
		c.Duration = 25 * simtime.Millisecond
	}
	if c.Preset == "" {
		c.Preset = "two-socket"
	}
	if c.Mode == "" {
		c.Mode = arbiter.WorkConserving
	}
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.Oracle == (OracleConfig{}) {
		c.Oracle = DefaultOracleConfig()
	}
	if c.VsController && c.RemedyDeadline <= 0 {
		c.RemedyDeadline = 2 * simtime.Millisecond
	}
	return c
}

// remedyPolicy resolves the controller rule table for this run.
func (c Config) remedyPolicy() remedy.Policy {
	if c.RemedyPolicy != nil {
		return *c.RemedyPolicy
	}
	return remedy.DefaultPolicy()
}

// SnapConfig builds the deterministic session config for host i. Fleet
// hosts perturb the manager seed so the fleet does not move in
// lockstep.
func (c Config) SnapConfig(host int) snap.Config {
	opts := core.DefaultOptions()
	opts.Seed = c.Seed + int64(host)*1009
	opts.Arbiter.Mode = c.Mode
	return snap.Config{Preset: c.Preset, Options: opts}
}

// Result is one chaos run's outcome.
type Result struct {
	Seed int64 `json:"seed"`
	// Events is the number of injected mutations that took effect
	// (journaled); Rejected counts attempts the manager refused —
	// refusals are state-neutral and unjournaled, so they need no
	// reproduction.
	Events   int            `json:"events"`
	Rejected int            `json:"rejected"`
	Counts   map[string]int `json:"counts"`
	// SnapshotChecks counts mid-chaos snapshot->restore round-trips.
	SnapshotChecks int          `json:"snapshot_checks"`
	FinalTime      simtime.Time `json:"final_time_ns"`
	// Violation is the first invariant breach, nil when clean.
	Violation *Violation `json:"violation,omitempty"`
	// Host names the offending host in fleet mode.
	Host string `json:"host,omitempty"`
	// Config and Journal reproduce the run (the offending host's, in
	// fleet mode).
	Config  snap.Config  `json:"config"`
	Journal snap.Journal `json:"journal"`
	// Journals holds every host's journal in host-name order (fleet
	// mode, clean runs): the cross-worker determinism fixture.
	Journals []snap.Journal `json:"journals,omitempty"`
	// Remedy reports the chaos-vs-controller outcome (VsController).
	Remedy *RemedyReport `json:"remedy,omitempty"`
}

// RemedyReport scores the controller against the injected schedule.
type RemedyReport struct {
	Deadline simtime.Duration `json:"deadline_ns"`
	// Incidents is everything the controller opened; Eligible is the
	// subset it can fairly be graded on: covered hard failures (the
	// oracle already demands those localize) plus anything the detector
	// actually flagged. An uncovered or undetectable fault is invisible
	// to §3.1 monitoring and is not counted against the controller.
	Incidents int `json:"incidents"`
	Eligible  int `json:"eligible"`
	// Remediated counts eligible incidents resolved within Deadline.
	Remediated int `json:"remediated"`
	// Missed lists eligible incidents that were not (host:subject).
	Missed []string `json:"missed,omitempty"`
	// MTTR percentiles over all resolved incidents, in virtual us.
	MTTRp50Us float64 `json:"mttr_p50_us"`
	MTTRp99Us float64 `json:"mttr_p99_us"`
	Executed  uint64  `json:"actions_executed"`
	Failed    uint64  `json:"actions_failed"`
}

// Ratio returns remediated/eligible, 1 when nothing was eligible.
func (r *RemedyReport) Ratio() float64 {
	if r.Eligible == 0 {
		return 1
	}
	return float64(r.Remediated) / float64(r.Eligible)
}

// eligibleIncident reports whether the controller is graded on in.
func eligibleIncident(in remedy.Incident) bool {
	if in.Class == remedy.ClassLinkFail && in.Covered && in.FaultKnown {
		return true
	}
	return in.Detected
}

// foldRemedy accumulates one host's incidents into the report.
func (r *RemedyReport) fold(host string, ins []remedy.Incident, mttrs *[]simtime.Duration) {
	for _, in := range ins {
		r.Incidents++
		if d, ok := in.MTTR(); ok {
			*mttrs = append(*mttrs, d)
		}
		if !eligibleIncident(in) {
			continue
		}
		r.Eligible++
		if d, ok := in.MTTR(); ok && d <= r.Deadline {
			r.Remediated++
			continue
		}
		subj := in.Subject
		if host != "" {
			subj = host + ":" + subj
		}
		r.Missed = append(r.Missed, subj)
	}
}

// Run executes one chaos run to completion or first violation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts > 1 {
		return runFleet(cfg)
	}
	sc := cfg.SnapConfig(0)
	sess, err := snap.NewSession(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := NewOracle(sess.Manager(), cfg.Oracle)
	inj := newInjector(sess, rng)
	// A live SSE-style subscriber rides along for the whole run,
	// checking that the event stream agrees with the journal.
	watch := newStreamWatcher(sess.Manager().Obs().Bus)
	res := &Result{Seed: cfg.Seed, Counts: make(map[string]int), Config: sc}

	// In vs-controller mode the controller's journaled actions must
	// reach the oracle too (a rollback the oracle never sees would
	// leave stale failure expectations), so the injector stops feeding
	// it directly and every new journal entry is synced instead.
	var ctrl *remedy.Controller
	injOracle := o
	oracleSeq := 0
	syncOracle := func() {
		j := sess.Journal()
		for ; oracleSeq < j.Len(); oracleSeq++ {
			o.ObserveEntry(j.Entries[oracleSeq])
		}
	}
	if cfg.VsController {
		injOracle = nil
		ctrl, err = remedy.New(sess.Manager(), remedy.SessionActuator{Sess: sess},
			remedy.Options{Policy: cfg.remedyPolicy()})
		if err != nil {
			return nil, err
		}
		defer ctrl.Close()
	}

	// Warm up past detector calibration so the anomaly invariants arm.
	acfg := sc.Options.Anomaly
	if err := sess.Advance(simtime.Duration(acfg.CalibrationRounds+5) * acfg.Period); err != nil {
		return nil, err
	}

	mean := cfg.Duration / simtime.Duration(cfg.Events)
	if mean < 2*simtime.Microsecond {
		mean = 2 * simtime.Microsecond
	}

	check := func() bool {
		if vs := o.Check(sess.Journal().Len() - 1); len(vs) > 0 {
			res.Violation = &vs[0]
			return true
		}
		if v := watch.drain(sess.Now(), sess.Journal().Len()-1); v != nil {
			res.Violation = v
			return true
		}
		return false
	}

	for attempts := 0; res.Events < cfg.Events && attempts < cfg.Events*4 && res.Violation == nil; attempts++ {
		name, applied := inj.injectOne(injOracle)
		if applied {
			res.Events++
			res.Counts[name]++
		} else {
			res.Rejected++
		}
		gap := mean/2 + simtime.Duration(rng.Int63n(int64(mean)))
		if err := sess.Advance(gap); err != nil {
			return nil, err
		}
		if ctrl != nil {
			ctrl.Step()
			syncOracle()
		}
		if check() {
			break
		}
		if applied && cfg.Oracle.SnapshotEvery > 0 && res.Events%cfg.Oracle.SnapshotEvery == 0 {
			res.SnapshotChecks++
			if v := o.CheckSnapshot(sess, sess.Journal().Len()-1); v != nil {
				res.Violation = v
				break
			}
		}
	}

	// Tail: let pending localization deadlines and the all-clear margin
	// elapse with the oracle still watching. In vs-controller mode the
	// tail also grants the controller one full deadline of quiet time to
	// finish healing — unresolved eligible incidents after that count as
	// missed.
	if res.Violation == nil {
		tail := simtime.Duration(acfg.ConsecutiveBad+cfg.Oracle.DetectRoundsMargin+cfg.Oracle.ClearRoundsMargin+2) * acfg.Period
		if ctrl != nil && cfg.RemedyDeadline > tail {
			tail = cfg.RemedyDeadline
		}
		for i := 0; i < 8 && res.Violation == nil; i++ {
			if err := sess.Advance(tail / 8); err != nil {
				return nil, err
			}
			if ctrl != nil {
				ctrl.Step()
				syncOracle()
			}
			check()
		}
	}

	if res.Violation == nil {
		res.Violation = watch.finish(sess.Journal(), sess.Now(), sess.Journal().Len()-1)
	}
	res.FinalTime = sess.Now()
	res.Journal = sess.Journal()
	if ctrl != nil {
		rep := &RemedyReport{Deadline: cfg.RemedyDeadline}
		var mttrs []simtime.Duration
		rep.fold("", ctrl.Incidents(), &mttrs)
		s := ctrl.Stats()
		rep.Executed, rep.Failed = s.Executed, s.Failed
		rep.MTTRp50Us = float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond)
		rep.MTTRp99Us = float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond)
		res.Remedy = rep
	}
	return res, nil
}

// op is one weighted injection. ready gates availability on current
// state; do applies the mutation through the session (journal) path
// and reports the manager's verdict.
type op struct {
	name   string
	weight int
	ready  func() bool
	do     func() error
}

// injector owns the deterministic candidate pools the schedule draws
// from. Every pool is either sorted or insertion-ordered by the
// (deterministic) schedule itself, so the rand stream consumption is a
// pure function of the seed.
type injector struct {
	sess      *snap.Session
	rng       *rand.Rand
	links     []string
	devices   []string
	comps     []string
	admitted  []string
	workloads map[string]bool
	tenantSeq int
	ops       []op
}

// configPalette is the drift-injection value space for the well-known
// knobs the monitor and fabric watch.
var configPalette = map[string][]string{
	topology.ConfigDDIO:            {"on", "off"},
	topology.ConfigIOMMU:           {"off", "passthrough", "translate"},
	topology.ConfigMaxPayload:      {"128", "256", "512"},
	topology.ConfigRelaxedOrdering: {"on", "off"},
	topology.ConfigIntModeration:   {"0", "5", "20"},
}

var workloadKinds = []string{"kv", "ml", "loopback", "scan"}

func newInjector(sess *snap.Session, rng *rand.Rand) *injector {
	topo := sess.Manager().Topology()
	in := &injector{sess: sess, rng: rng, workloads: make(map[string]bool)}
	for _, l := range topo.Links() {
		in.links = append(in.links, string(l.ID))
	}
	for _, k := range []topology.Kind{topology.KindCPU, topology.KindGPU, topology.KindNIC, topology.KindSSD} {
		for _, c := range topo.ComponentsOfKind(k) {
			in.devices = append(in.devices, string(c.ID))
		}
	}
	sort.Strings(in.devices)
	for _, c := range topo.Components() {
		in.comps = append(in.comps, string(c.ID))
	}
	in.ops = []op{
		{"admit", 3, func() bool { return len(in.admitted) < 12 }, in.admit},
		{"evict", 1, func() bool { return len(in.admitted) > 0 }, in.evict},
		{"fail-link", 2, func() bool { return in.failedCount() < 2 }, in.fail},
		{"restore-link", 2, func() bool { return len(in.unhealthy()) > 0 }, in.restore},
		{"degrade-link", 2, func() bool { return len(in.nonFailed()) > 0 }, in.degrade},
		{"config-drift", 2, nil, in.drift},
		{"workload", 2, func() bool { return in.idleTenant() >= 0 }, in.workload},
		// Probes stall against failed links (they run to a bounded
		// timeout), so traffic spikes only fire on a healthy fabric.
		{"perf-spike", 1, func() bool { return in.failedCount() == 0 }, in.perf},
		{"ping", 1, func() bool { return in.failedCount() == 0 }, in.ping},
	}
	return in
}

// injectOne picks one available op by weight and applies it. It
// reports the op name and whether the mutation was journaled; the
// oracle observes every journaled entry.
func (in *injector) injectOne(o *Oracle) (string, bool) {
	total := 0
	avail := make([]op, 0, len(in.ops))
	for _, cand := range in.ops {
		if cand.ready == nil || cand.ready() {
			avail = append(avail, cand)
			total += cand.weight
		}
	}
	r := in.rng.Intn(total)
	chosen := avail[0]
	for _, cand := range avail {
		if r < cand.weight {
			chosen = cand
			break
		}
		r -= cand.weight
	}
	before := in.sess.Journal().Len()
	_ = chosen.do()
	j := in.sess.Journal()
	applied := j.Len() > before
	if applied && o != nil {
		o.ObserveEntry(j.Entries[j.Len()-1])
	}
	return chosen.name, applied
}

func (in *injector) nonFailed() []string {
	fab := in.sess.Manager().Fabric()
	out := make([]string, 0, len(in.links))
	for _, l := range in.links {
		if !fab.LinkFailed(topology.LinkID(l)) {
			out = append(out, l)
		}
	}
	return out
}

func (in *injector) failedCount() int { return len(in.links) - len(in.nonFailed()) }

func (in *injector) unhealthy() []string {
	var out []string
	for _, l := range in.sess.Manager().Fabric().UnhealthyLinks() {
		out = append(out, string(l))
	}
	return out
}

// idleTenant returns the index of the first admitted tenant with no
// workload, or -1.
func (in *injector) idleTenant() int {
	for i, t := range in.admitted {
		if !in.workloads[t] {
			return i
		}
	}
	return -1
}

func (in *injector) admit() error {
	tenant := fmt.Sprintf("t%02d", in.tenantSeq)
	in.tenantSeq++
	n := 1 + in.rng.Intn(2)
	targets := make([]intent.Target, 0, n)
	for i := 0; i < n; i++ {
		si := in.rng.Intn(len(in.devices))
		src := in.devices[si]
		dst := string(intent.AnyMemory)
		if in.rng.Intn(2) == 0 {
			di := in.rng.Intn(len(in.devices))
			if in.devices[di] == src {
				di = (di + 1) % len(in.devices)
			}
			dst = in.devices[di]
		}
		rate := topology.Rate((0.5 + 3.5*in.rng.Float64()) * 1e9)
		targets = append(targets, intent.Target{
			Src: topology.CompID(src), Dst: topology.CompID(dst), Rate: rate,
		})
	}
	if _, err := in.sess.Admit(tenant, targets); err != nil {
		return err
	}
	in.admitted = append(in.admitted, tenant)
	return nil
}

func (in *injector) evict() error {
	i := in.rng.Intn(len(in.admitted))
	tenant := in.admitted[i]
	if err := in.sess.Evict(tenant); err != nil {
		return err
	}
	in.admitted = append(in.admitted[:i], in.admitted[i+1:]...)
	delete(in.workloads, tenant)
	return nil
}

func (in *injector) fail() error {
	cands := in.nonFailed()
	return in.sess.FailLink(cands[in.rng.Intn(len(cands))])
}

func (in *injector) restore() error {
	cands := in.unhealthy()
	return in.sess.RestoreLink(cands[in.rng.Intn(len(cands))])
}

func (in *injector) degrade() error {
	cands := in.nonFailed()
	link := cands[in.rng.Intn(len(cands))]
	loss := 0.05 + 0.6*in.rng.Float64()
	extra := simtime.Duration(in.rng.Intn(3)) * simtime.Microsecond
	return in.sess.DegradeLink(link, loss, extra)
}

func (in *injector) drift() error {
	comp := in.comps[in.rng.Intn(len(in.comps))]
	keys := make([]string, 0, len(configPalette))
	for k := range configPalette {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := keys[in.rng.Intn(len(keys))]
	vals := configPalette[key]
	return in.sess.SetComponentConfig(comp, key, vals[in.rng.Intn(len(vals))])
}

func (in *injector) workload() error {
	tenant := in.admitted[in.idleTenant()]
	kind := workloadKinds[in.rng.Intn(len(workloadKinds))]
	if err := in.sess.StartWorkload(kind, tenant, "", ""); err != nil {
		return err
	}
	in.workloads[tenant] = true
	return nil
}

func (in *injector) endpointPair() (string, string) {
	si := in.rng.Intn(len(in.devices))
	di := in.rng.Intn(len(in.devices))
	if di == si {
		di = (di + 1) % len(in.devices)
	}
	return in.devices[si], in.devices[di]
}

func (in *injector) perf() error {
	src, dst := in.endpointPair()
	_, err := in.sess.Perf(src, dst, "_burst")
	return err
}

func (in *injector) ping() error {
	src, dst := in.endpointPair()
	_, err := in.sess.Ping(src, dst)
	return err
}
