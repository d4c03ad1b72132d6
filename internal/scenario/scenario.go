// Package scenario runs declarative incident drills against a managed
// host: a JSON spec names a topology preset, the tenants to admit, the
// workloads and faults to inject on a timeline, and the assertions
// that must hold afterwards. Operators use drills to rehearse the
// §3.1/§3.2 incidents (is a silent switch degradation detected within
// X? does the KV tail stay below Y under the antagonist?) and to keep
// them passing as the stack evolves — regression tests for the
// management plane itself.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Spec is the on-disk drill description.
type Spec struct {
	Name       string `json:"name"`
	Preset     string `json:"preset"`
	Seed       int64  `json:"seed"`
	DurationUs int64  `json:"duration_us"`
	// ArbiterMode optionally overrides the arbiter: "strict" or
	// "work-conserving" (the default).
	ArbiterMode string `json:"arbiter_mode,omitempty"`

	// Remedy arms the closed-loop remediation controller for the
	// drill: injected faults become incidents it must heal.
	Remedy *RemedySpec `json:"remedy,omitempty"`

	Tenants   []TenantSpec   `json:"tenants,omitempty"`
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	Faults    []FaultSpec    `json:"faults,omitempty"`
	Asserts   []AssertSpec   `json:"asserts,omitempty"`
}

// RemedySpec configures the drill's remediation controller.
type RemedySpec struct {
	Enabled bool `json:"enabled"`
	// StepIntervalUs is the control-loop cadence on the virtual clock
	// (default 100us, the anomaly probe period).
	StepIntervalUs int64 `json:"step_interval_us,omitempty"`
}

// TenantSpec admits one tenant before the clock starts.
type TenantSpec struct {
	Tenant  string       `json:"tenant"`
	Targets []TargetSpec `json:"targets"`
}

// TargetSpec is one intent target.
type TargetSpec struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
}

// WorkloadSpec starts a workload at a point on the timeline.
type WorkloadSpec struct {
	// Kind: "kv", "ml", "loopback", "scan".
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	AtUs   int64  `json:"at_us"`
	// Optional endpoints; defaults follow the workload package.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
}

// FaultSpec injects a fault at a point on the timeline.
type FaultSpec struct {
	// Kind: "degrade", "fail", "restore", "config".
	Kind string `json:"kind"`
	AtUs int64  `json:"at_us"`
	Link string `json:"link,omitempty"`
	// Degradation parameters.
	LossFrac float64 `json:"loss_frac,omitempty"`
	ExtraUs  int64   `json:"extra_us,omitempty"`
	// Config parameters.
	Component string `json:"component,omitempty"`
	Key       string `json:"key,omitempty"`
	Value     string `json:"value,omitempty"`
}

// AssertSpec is one post-run check.
type AssertSpec struct {
	// Kind: "detected_within_us", "no_detection", "top_suspect",
	// "p99_below_us", "p99_above_us", "drift_alert",
	// "tenant_rate_at_least_gbps", "remedy_action_executed",
	// "remediated_within_us".
	Kind string `json:"kind"`
	// WithinUs for detected_within_us (measured from the first fault)
	// and remediated_within_us (the MTTR bound on every incident).
	WithinUs int64 `json:"within_us,omitempty"`
	// Link for top_suspect and remedy_action_executed (optional there:
	// restricts the match to incidents on that link).
	Link string `json:"link,omitempty"`
	// Action for remedy_action_executed: a verb ("rollback",
	// "migrate", ...) or "|"-separated alternatives ("migrate|rollback").
	Action string `json:"action,omitempty"`
	// Tenant + ValueUs for the p99 checks; Tenant + Gbps for rate.
	Tenant  string  `json:"tenant,omitempty"`
	ValueUs float64 `json:"value_us,omitempty"`
	Gbps    float64 `json:"gbps,omitempty"`
}

// maxDurationUs bounds a drill so every timeline time converts to
// virtual nanoseconds without overflow.
const maxDurationUs = math.MaxInt64 / int64(simtime.Microsecond)

// Load parses and validates a spec.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("scenario: needs a name")
	}
	if _, ok := topology.Presets[s.Preset]; !ok {
		return Spec{}, fmt.Errorf("scenario: unknown preset %q", s.Preset)
	}
	if s.DurationUs <= 0 || s.DurationUs > maxDurationUs {
		return Spec{}, fmt.Errorf("scenario: duration_us must be in (0, %d]", maxDurationUs)
	}
	switch s.ArbiterMode {
	case "", string(arbiter.Strict), string(arbiter.WorkConserving):
	default:
		return Spec{}, fmt.Errorf("scenario: unknown arbiter mode %q", s.ArbiterMode)
	}
	for i, ts := range s.Tenants {
		if ts.Tenant == "" || len(ts.Targets) == 0 {
			return Spec{}, fmt.Errorf("scenario: tenant %d needs a name and targets", i)
		}
	}
	// A timeline time outside [0, duration_us] is an operation the
	// drill would never apply.
	inRange := func(atUs int64) bool { return atUs >= 0 && atUs <= s.DurationUs }
	for i, w := range s.Workloads {
		if !inRange(w.AtUs) {
			return Spec{}, fmt.Errorf("scenario: workload %d at_us %d is outside [0, %d]", i, w.AtUs, s.DurationUs)
		}
		switch w.Kind {
		case "kv", "ml", "loopback", "scan":
		default:
			return Spec{}, fmt.Errorf("scenario: workload %d has unknown kind %q", i, w.Kind)
		}
		if w.Tenant == "" {
			return Spec{}, fmt.Errorf("scenario: workload %d needs a tenant", i)
		}
	}
	for i, f := range s.Faults {
		if !inRange(f.AtUs) {
			return Spec{}, fmt.Errorf("scenario: fault %d at_us %d is outside [0, %d]", i, f.AtUs, s.DurationUs)
		}
		switch f.Kind {
		case "degrade", "fail", "restore":
			if f.Link == "" {
				return Spec{}, fmt.Errorf("scenario: fault %d needs a link", i)
			}
		case "config":
			if f.Component == "" || f.Key == "" {
				return Spec{}, fmt.Errorf("scenario: fault %d needs component and key", i)
			}
		default:
			return Spec{}, fmt.Errorf("scenario: fault %d has unknown kind %q", i, f.Kind)
		}
	}
	remedyOn := s.Remedy != nil && s.Remedy.Enabled
	for i, a := range s.Asserts {
		switch a.Kind {
		case "detected_within_us", "no_detection", "top_suspect",
			"p99_below_us", "p99_above_us", "drift_alert",
			"tenant_rate_at_least_gbps":
		case "remedy_action_executed", "remediated_within_us":
			if !remedyOn {
				return Spec{}, fmt.Errorf("scenario: assert %d (%s) needs remedy.enabled", i, a.Kind)
			}
			if a.Kind == "remedy_action_executed" && a.Action == "" {
				return Spec{}, fmt.Errorf("scenario: assert %d needs an action", i)
			}
		default:
			return Spec{}, fmt.Errorf("scenario: assert %d has unknown kind %q", i, a.Kind)
		}
	}
	return s, nil
}

// CheckResult is one assertion's outcome.
type CheckResult struct {
	Assert AssertSpec
	Passed bool
	Detail string
}

// Result is a completed drill.
type Result struct {
	Name     string
	Passed   bool
	Checks   []CheckResult
	Timeline []string
	// Snapshot is the drill as executed, taken at its end: the host,
	// every command applied to it (remediation ticks and actions
	// included) and the state hash it reached. snap.CheckDeterminism
	// checks its journal; snap.RestorePayload rebuilds it.
	Snapshot snap.Payload
}

// Run executes a drill and evaluates its assertions. The drill runs as
// a session journal: every ToJournal entry goes through
// snap.Session.ReplayEntry, so an operation at t applies before the
// engine's own events due at t. An armed remediation controller steps
// every step_interval_us of virtual time, acting through the session;
// a timeline operation due at a tick's time applies before that tick.
func Run(spec Spec) (Result, error) {
	sess, err := snap.NewSession(config(spec))
	if err != nil {
		return Result{}, err
	}
	defer sess.Manager().Stop()
	res := Result{Name: spec.Name}

	// Arm the remediation controller before the timeline starts so the
	// injected faults' trace events are observed with exact timestamps.
	var ctrl *remedy.Controller
	var interval simtime.Duration
	if spec.Remedy != nil && spec.Remedy.Enabled {
		ctrl, err = remedy.New(sess.Manager(), remedy.SessionActuator{Sess: sess},
			remedy.Options{Policy: remedy.DefaultPolicy()})
		if err != nil {
			return Result{}, err
		}
		defer ctrl.Close()
		interval = simtime.Duration(spec.Remedy.StepIntervalUs) * simtime.Microsecond
		if interval <= 0 {
			interval = 100 * simtime.Microsecond
		}
	}
	// stepBefore runs the controller's ticks due before t: advance to
	// the tick, then step.
	tick := simtime.Time(interval)
	stepBefore := func(t simtime.Time) error {
		for ; ctrl != nil && tick < t; tick = tick.Add(interval) {
			if err := sess.AdvanceTo(tick); err != nil {
				return err
			}
			ctrl.Step()
		}
		return nil
	}

	var firstFault simtime.Time = -1
	for i, st := range steps(spec) {
		if err := stepBefore(simtime.Time(st.e.AtNs)); err != nil {
			return Result{}, err
		}
		if err := sess.ReplayEntry(st.e); err != nil {
			return Result{}, fmt.Errorf("scenario: timeline entry %d (%s at %dns): %w", i, st.e.Kind, st.e.AtNs, err)
		}
		if st.fault && firstFault < 0 {
			firstFault = sess.Now()
		}
		res.Timeline = append(res.Timeline, fmt.Sprintf("t=%-12v %s", sess.Now(), st.log))
	}
	// The drill covers its last instant: a tick due at end still runs.
	end := simtime.Time(spec.DurationUs) * simtime.Time(simtime.Microsecond)
	if err := stepBefore(end + 1); err != nil {
		return Result{}, err
	}
	if err := sess.AdvanceTo(end); err != nil {
		return Result{}, err
	}

	// Replay the remediation ledger onto the timeline using the
	// actions' own virtual timestamps.
	if ctrl != nil {
		for _, in := range ctrl.Incidents() {
			for _, ar := range in.Actions {
				line := fmt.Sprintf("t=%-12v remedy %s on %s", ar.At, ar.Action, in.Subject)
				if ar.Err != "" {
					line += " (failed: " + ar.Err + ")"
				}
				res.Timeline = append(res.Timeline, line)
			}
			if d, ok := in.MTTR(); ok {
				res.Timeline = append(res.Timeline,
					fmt.Sprintf("t=%-12v remedy resolved %s (mttr %v)", in.ResolvedAt, in.Subject, d))
			}
		}
	}

	res.Passed = true
	for _, a := range spec.Asserts {
		c := evaluate(sess, ctrl, a, firstFault)
		if !c.Passed {
			res.Passed = false
		}
		res.Checks = append(res.Checks, c)
	}
	res.Snapshot = sess.BuildPayload()
	return res, nil
}

func evaluate(sess *snap.Session, ctrl *remedy.Controller, a AssertSpec, firstFault simtime.Time) CheckResult {
	mgr := sess.Manager()
	c := CheckResult{Assert: a}
	switch a.Kind {
	case "remedy_action_executed":
		verbs := strings.Split(a.Action, "|")
		for _, in := range ctrl.Incidents() {
			if a.Link != "" && !sameLink(mgr, in.Subject, a.Link) {
				continue
			}
			for _, ar := range in.Actions {
				if ar.Err != "" {
					continue
				}
				for _, v := range verbs {
					if string(ar.Action) == v {
						c.Passed = true
						c.Detail = fmt.Sprintf("%s executed on %s at t=%v", ar.Action, in.Subject, ar.At)
						return c
					}
				}
			}
		}
		c.Detail = fmt.Sprintf("no successful %q action", a.Action)
	case "remediated_within_us":
		bound := simtime.Duration(a.WithinUs) * simtime.Microsecond
		incidents := ctrl.Incidents()
		if len(incidents) == 0 {
			c.Detail = "no incidents opened"
			return c
		}
		var worst simtime.Duration
		for _, in := range incidents {
			d, ok := in.MTTR()
			if !ok {
				c.Detail = fmt.Sprintf("incident %s still open", in.Subject)
				return c
			}
			if d > worst {
				worst = d
			}
		}
		c.Passed = worst <= bound
		c.Detail = fmt.Sprintf("%d incident(s) resolved, worst mttr %v", len(incidents), worst)
	case "detected_within_us":
		dets := mgr.Anomaly().Detections()
		if len(dets) == 0 {
			c.Detail = "no detections"
			return c
		}
		if firstFault < 0 {
			c.Detail = "no fault was injected"
			return c
		}
		lat := dets[0].At.Sub(firstFault)
		c.Passed = lat <= simtime.Duration(a.WithinUs)*simtime.Microsecond
		c.Detail = fmt.Sprintf("detected after %v", lat)
	case "no_detection":
		n := len(mgr.Anomaly().Detections())
		c.Passed = n == 0
		c.Detail = fmt.Sprintf("%d detections", n)
	case "top_suspect":
		dets := mgr.Anomaly().Detections()
		if len(dets) == 0 || len(dets[0].Suspects) == 0 {
			c.Detail = "no suspects"
			return c
		}
		top := dets[0].Suspects[0].Link
		c.Passed = sameLink(mgr, string(top), a.Link)
		c.Detail = fmt.Sprintf("top suspect %s", top)
	case "p99_below_us", "p99_above_us":
		kv := sess.KV(a.Tenant)
		if kv == nil {
			c.Detail = fmt.Sprintf("no kv workload for tenant %q", a.Tenant)
			return c
		}
		p99 := kv.Latency().Percentile(99)
		bound := simtime.Duration(a.ValueUs * float64(simtime.Microsecond))
		if a.Kind == "p99_below_us" {
			c.Passed = p99 <= bound
		} else {
			c.Passed = p99 > bound
		}
		c.Detail = fmt.Sprintf("p99 = %v", p99)
	case "drift_alert":
		n := len(mgr.Monitor().AlertsOfKind(monitor.AlertConfigDrift))
		c.Passed = n > 0
		c.Detail = fmt.Sprintf("%d drift alerts", n)
	case "tenant_rate_at_least_gbps":
		usage := mgr.Fabric().TenantUsage(fabric.TenantID(a.Tenant))
		var max topology.Rate
		for _, r := range usage {
			if r > max {
				max = r
			}
		}
		c.Passed = max >= topology.Gbps(a.Gbps)
		c.Detail = fmt.Sprintf("peak class rate %v", max)
	default:
		c.Detail = "unknown assert"
	}
	return c
}

// sameLink reports whether got names the same physical link as want,
// in either direction.
func sameLink(mgr *core.Manager, got, want string) bool {
	if got == want {
		return true
	}
	l := mgr.Topology().Link(topology.LinkID(want))
	return l != nil && topology.LinkID(got) == l.Reverse
}
