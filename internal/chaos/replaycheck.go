package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// CheckPoint is one point at which a live run's oracle checked a
// host: once the host had journaled Entries entries, at virtual time
// AtNs. A check can fall inside an advance that the journal later
// coalesced with the next one.
type CheckPoint struct {
	Entries int   `json:"entries"`
	AtNs    int64 `json:"at_ns"`
}

// CheckJournal rebuilds a session from cfg, replays the journal one
// entry at a time through the shared apply path, and runs the oracle
// at each check point (plus periodic snapshot->restore round-trips).
// With no check points it checks after every entry. It returns the
// first violation, or nil when the journal replays clean. This is the
// reproduction side of the harness: a violation found live is
// re-derivable from (config, journal, check points) alone.
//
// The check points matter because some invariants hold a streak
// across checks (work conservation must fail at every check for a
// grace period), so checking more often, or at other times, than the
// live run can reset a streak the live run saw unbroken.
func CheckJournal(cfg snap.Config, j snap.Journal, checks []CheckPoint, ocfg OracleConfig) (*Violation, error) {
	sess, err := snap.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	o := NewOracle(sess.Manager(), ocfg)
	mutations := 0
	ci := 0
	for i, e := range j.Entries {
		// Checks the live run made part way through this advance.
		for ; e.Kind == snap.KindAdvance && ci < len(checks) && checks[ci].Entries <= i+1 && checks[ci].AtNs < e.ToNs; ci++ {
			if at := checks[ci].AtNs; at > int64(sess.Now()) {
				part := e
				part.ToNs = at
				if err := sess.ReplayEntry(part); err != nil {
					return nil, fmt.Errorf("chaos: replay entry %d (%s): %w", i, e.Kind, err)
				}
			}
			if vs := o.Check(i); len(vs) > 0 {
				return &vs[0], nil
			}
		}
		if err := sess.ReplayEntry(e); err != nil {
			return nil, fmt.Errorf("chaos: replay entry %d (%s): %w", i, e.Kind, err)
		}
		o.ObserveEntry(e)
		n := 1
		if checks != nil {
			for n = 0; ci < len(checks) && checks[ci].Entries <= i+1; ci++ {
				n++
			}
		}
		for ; n > 0; n-- {
			if vs := o.Check(i); len(vs) > 0 {
				return &vs[0], nil
			}
		}
		if e.Kind != snap.KindAdvance {
			mutations++
			if ocfg.SnapshotEvery > 0 && mutations%ocfg.SnapshotEvery == 0 {
				if v := o.CheckSnapshot(sess, i); v != nil {
					return v, nil
				}
			}
		}
	}
	return nil, nil
}

// Minimize shrinks a violating journal while preserving the violated
// invariant, checking after every entry (CheckJournal with no check
// points): truncate to the violating prefix, then greedily drop
// single entries (ddmin-lite), keeping an entry whenever its removal
// makes the replay error out or the violation vanish. Each attempt is
// a full replay, so the search is bounded by maxTries.
func Minimize(cfg snap.Config, j snap.Journal, ocfg OracleConfig, maxTries int) (snap.Journal, *Violation, error) {
	v, err := CheckJournal(cfg, j, nil, ocfg)
	if err != nil {
		return j, nil, err
	}
	if v == nil {
		return j, nil, fmt.Errorf("chaos: journal does not reproduce a violation")
	}
	if maxTries <= 0 {
		maxTries = 300
	}
	// The violation fired right after entry v.Seq; everything later is
	// noise by construction.
	if v.Seq+1 < len(j.Entries) {
		j = snap.Journal{Entries: append([]snap.Entry(nil), j.Entries[:v.Seq+1]...)}
	}
	tries := 0
	for i := len(j.Entries) - 2; i >= 0 && tries < maxTries; i-- {
		cand := without(j, i)
		tries++
		cv, err := CheckJournal(cfg, cand, nil, ocfg)
		if err != nil || cv == nil || cv.Invariant != v.Invariant {
			continue // entry is load-bearing
		}
		j, v = cand, cv
	}
	return j, v, nil
}

// without copies j minus entry i, renumbering sequence numbers densely
// so the result stays a valid journal.
func without(j snap.Journal, i int) snap.Journal {
	out := snap.Journal{Entries: make([]snap.Entry, 0, len(j.Entries)-1)}
	for k, e := range j.Entries {
		if k == i {
			continue
		}
		e.Seq = uint64(len(out.Entries))
		out.Entries = append(out.Entries, e)
	}
	return out
}

// Artifact is the self-describing repro bundle a failed fuzz run
// writes: everything needed to re-derive the violation, no seed replay
// required.
type Artifact struct {
	SchemaVersion int          `json:"schema_version"`
	Seed          int64        `json:"seed"`
	Host          string       `json:"host,omitempty"`
	Config        snap.Config  `json:"config"`
	Oracle        OracleConfig `json:"oracle"`
	Journal       snap.Journal `json:"journal"`
	// Checks is the live run's check schedule for Journal. A
	// minimized journal has none: Minimize checks after every entry,
	// and so does Recheck then.
	Checks []CheckPoint `json:"checks,omitempty"`
	// VsController, RemedyDeadline and RemedyPolicy record the
	// remediation controller the run was graded against. Its actions
	// are journal entries, so the replay re-applies them rather than
	// re-deciding them.
	VsController   bool             `json:"vs_controller,omitempty"`
	RemedyDeadline simtime.Duration `json:"remedy_deadline_ns,omitempty"`
	RemedyPolicy   *remedy.Policy   `json:"remedy_policy,omitempty"`
	Violation      *Violation       `json:"violation"`
}

// NewArtifact bundles a violating run result with the config that
// produced it.
func NewArtifact(res *Result, cfg Config) Artifact {
	cfg = cfg.withDefaults()
	a := Artifact{
		SchemaVersion: 1,
		Seed:          res.Seed,
		Host:          res.Host,
		Config:        res.Config,
		Oracle:        cfg.Oracle,
		Journal:       res.Journal,
		Checks:        res.Checks,
		Violation:     res.Violation,
	}
	if cfg.VsController {
		pol := cfg.remedyPolicy()
		a.VsController, a.RemedyDeadline, a.RemedyPolicy = true, cfg.RemedyDeadline, &pol
	}
	return a
}

// WriteArtifact writes the bundle as indented JSON.
func WriteArtifact(path string, a Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact loads a repro bundle.
func ReadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("chaos: bad artifact %s: %w", path, err)
	}
	return a, nil
}

// Recheck replays the artifact's journal under its own oracle config
// and returns the violation it reproduces (nil if it no longer does —
// i.e. the bug is fixed).
func (a Artifact) Recheck() (*Violation, error) {
	return CheckJournal(a.Config, a.Journal, a.Checks, a.Oracle)
}
