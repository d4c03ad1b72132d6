package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/intent"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/topology"
)

// fleetEpoch is the barrier interval for fleet chaos: short enough
// that injections interleave densely with parallel execution, long
// enough to amortize the barrier.
const fleetEpoch = 250 * simtime.Microsecond

// runFleet drives chaos over a fleet of hosts executed by the
// sharded engine as one shard. Injections happen only between epochs,
// with every live host parked at the same barrier, so the schedule
// stays a pure function of the seed even though hosts advance on a
// worker pool.
// On top of the per-host oracles it checks two fleet-level
// invariants: every fleet-placed tenant lives on exactly one host, and
// no automatic placement (fleet-place, fleet-rebalance) lands on a
// quarantined host.
func runFleet(cfg Config) (*Result, error) {
	flt := fleet.New()
	sessions := make([]*snap.Session, cfg.Hosts)
	names := make([]string, cfg.Hosts)
	oracles := make([]*Oracle, cfg.Hosts)
	injectors := make([]*injector, cfg.Hosts)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Hosts; i++ {
		sc := cfg.SnapConfig(i)
		sess, err := snap.NewSession(sc)
		if err != nil {
			return nil, err
		}
		names[i] = fmt.Sprintf("h%02d", i)
		if _, err := flt.AddSession(names[i], sess); err != nil {
			return nil, err
		}
		sessions[i] = sess
		oracles[i] = NewOracle(sess.Manager(), cfg.Oracle)
		injectors[i] = newInjector(sess, rng)
	}
	runner := fleet.NewShardedRunner(flt, fleet.ShardConfig{Shards: 1, Workers: cfg.Workers, Epoch: fleetEpoch})
	ctx := context.Background()
	res := &Result{Seed: cfg.Seed, Counts: make(map[string]int), Config: cfg.SnapConfig(0)}

	// vs-controller: per-host controllers stepped between epoch barriers
	// in host-name order, so remediation stays worker-count-invariant.
	// The injectors stop feeding the oracles directly; every new journal
	// entry (injected or remediation) is synced per host instead.
	var fc *remedy.FleetController
	oracleSeq := make([]int, cfg.Hosts)
	syncOracles := func() {
		for i := range sessions {
			j := sessions[i].Journal()
			for ; oracleSeq[i] < j.Len(); oracleSeq[i]++ {
				oracles[i].ObserveEntry(j.Entries[oracleSeq[i]])
			}
		}
	}
	injOracles := oracles
	if cfg.VsController {
		var err error
		fc, err = remedy.NewFleet(flt, runner, cfg.remedyPolicy())
		if err != nil {
			return nil, err
		}
		defer fc.Close()
		injOracles = make([]*Oracle, cfg.Hosts) // all nil: sync feeds instead
	}

	acfg := cfg.SnapConfig(0).Options.Anomaly
	warm := simtime.Duration(acfg.CalibrationRounds+5) * acfg.Period
	if _, err := runner.RunFor(ctx, warm); err != nil {
		return nil, err
	}

	// Fleet-placed tenants, tracked in placement order (slices, not
	// maps: the schedule must consume randomness deterministically).
	var placed []fabric.TenantID
	fleetSeq := 0
	quarantined := -1 // index into names, -1 when none
	quarantineLeft := 0

	// liveIndex returns a host index != quarantined, biased by r.
	liveIndex := func(r int) int {
		i := r % cfg.Hosts
		if i == quarantined {
			i = (i + 1) % cfg.Hosts
		}
		return i
	}

	checks := make([][]CheckPoint, cfg.Hosts)
	fail := func(i int, v Violation) {
		v.Host = names[i]
		res.Violation = &v
		res.Host = names[i]
		res.Config = cfg.SnapConfig(i)
		res.Journal = sessions[i].Journal()
		res.Checks = checks[i]
	}

	checkAll := func() {
		for i := range names {
			if res.Violation != nil {
				return
			}
			if i == quarantined {
				continue
			}
			n := sessions[i].Journal().Len()
			checks[i] = append(checks[i], CheckPoint{Entries: n, AtNs: int64(sessions[i].Now())})
			if vs := oracles[i].Check(n - 1); len(vs) > 0 {
				fail(i, vs[0])
				return
			}
		}
		// Fleet invariant: each placed tenant on exactly one host.
		hosts := flt.Hosts()
		for _, t := range placed {
			n, at := 0, 0
			for hi, h := range hosts {
				if h.Mgr.Tenant(t) != nil {
					n++
					at = hi
				}
			}
			if n != 1 {
				fail(at, Violation{
					Invariant: "fleet-placement", At: runner.Now(),
					Seq:     sessions[at].Journal().Len() - 1,
					Subject: string(t),
					Detail:  fmt.Sprintf("tenant placed on %d hosts, want exactly 1", n),
				})
				return
			}
		}
	}

	// Fleet invariant: an automatic placement never lands on a
	// quarantined host, whose frozen clock would never run the tenant.
	checkLive := func(event string, t fabric.TenantID, dst string) {
		if res.Violation != nil || quarantined < 0 || names[quarantined] != dst {
			return
		}
		fail(quarantined, Violation{
			Invariant: "fleet-quarantine", At: runner.Now(),
			Seq:     sessions[quarantined].Journal().Len() - 1,
			Subject: string(t),
			Detail:  fmt.Sprintf("%s landed on quarantined host %s", event, dst),
		})
	}

	fleetTargets := func() []intent.Target {
		devs := injectors[0].devices
		src := devs[rng.Intn(len(devs))]
		return []intent.Target{{
			Src: topology.CompID(src), Dst: intent.AnyMemory,
			Rate: topology.Rate((0.5 + 2.5*rng.Float64()) * 1e9),
		}}
	}

	maxEpochs := cfg.Events*2 + 50
	for epoch := 0; res.Events < cfg.Events && res.Violation == nil && epoch < maxEpochs; epoch++ {
		batch := 1 + rng.Intn(3)
		for b := 0; b < batch && res.Events < cfg.Events; b++ {
			applied, name := false, ""
			switch r := rng.Intn(12); {
			case r < 6: // host-local chaos through a session injector
				i := liveIndex(rng.Intn(cfg.Hosts))
				name, applied = injectors[i].injectOne(injOracles[i])
			case r < 8: // fleet placement
				name = "fleet-place"
				t := fabric.TenantID(fmt.Sprintf("f%02d", fleetSeq))
				fleetSeq++
				if _, h, err := flt.Place(t, fleetTargets(), runner.Live); err == nil {
					placed = append(placed, t)
					applied = true
					checkLive(name, t, h.Name)
				}
			case r == 8: // fleet eviction
				name = "fleet-evict"
				if len(placed) > 0 {
					i := rng.Intn(len(placed))
					if _, err := flt.Evict(placed[i]); err == nil {
						placed = append(placed[:i], placed[i+1:]...)
						applied = true
					}
				}
			case r == 9: // migration churn
				name = "fleet-migrate"
				if len(placed) > 0 {
					t := placed[rng.Intn(len(placed))]
					dst := names[rng.Intn(cfg.Hosts)]
					if src := flt.Locate(t); src != nil && src.Name != dst {
						if _, err := flt.Migrate(t, dst); err == nil {
							applied = true
						}
					}
				}
			case r == 10: // evacuate unhealthy hosts
				name = "fleet-rebalance"
				rep := flt.Rebalance(runner.Live)
				applied = len(rep.Moved) > 0
				moved := make([]fabric.TenantID, 0, len(rep.Moved))
				for t := range rep.Moved {
					moved = append(moved, t)
				}
				slices.Sort(moved)
				for _, t := range moved {
					checkLive(name, t, rep.Moved[t])
				}
			default: // operator quarantine churn
				name = "quarantine"
				if quarantined < 0 {
					i := rng.Intn(cfg.Hosts)
					if err := runner.Quarantine(names[i], nil); err == nil {
						quarantined = i
						quarantineLeft = 3 + rng.Intn(5)
						applied = true
					}
				}
			}
			if applied {
				res.Events++
				res.Counts[name]++
			} else {
				res.Rejected++
			}
		}
		if _, err := runner.RunFor(ctx, fleetEpoch); err != nil {
			return nil, err
		}
		if fc != nil {
			fc.StepAll()
			syncOracles()
		}
		checkAll()
		if res.Violation == nil && cfg.Oracle.SnapshotEvery > 0 && epoch%8 == 7 {
			i := liveIndex(epoch / 8)
			res.SnapshotChecks++
			if v := oracles[i].CheckSnapshot(sessions[i], sessions[i].Journal().Len()-1); v != nil {
				fail(i, *v)
			}
		}
		if quarantined >= 0 {
			quarantineLeft--
			if quarantineLeft <= 0 {
				runner.Unquarantine(names[quarantined])
				quarantined = -1
			}
		}
	}

	// Tail: readmit any quarantined host, then let detection and
	// all-clear deadlines elapse with the oracles watching.
	if quarantined >= 0 {
		runner.Unquarantine(names[quarantined])
		quarantined = -1
	}
	if res.Violation == nil {
		tail := simtime.Duration(acfg.ConsecutiveBad+cfg.Oracle.DetectRoundsMargin+cfg.Oracle.ClearRoundsMargin+2) * acfg.Period
		if fc != nil && cfg.RemedyDeadline > tail {
			tail = cfg.RemedyDeadline
		}
		for i := 0; i < 8 && res.Violation == nil; i++ {
			if _, err := runner.RunFor(ctx, tail/8); err != nil {
				return nil, err
			}
			if fc != nil {
				fc.StepAll()
				syncOracles()
			}
			checkAll()
		}
	}
	res.FinalTime = runner.Now()
	if res.Violation == nil {
		res.Journal = sessions[0].Journal()
		for i := range sessions {
			res.Journals = append(res.Journals, sessions[i].Journal())
		}
	}
	if fc != nil {
		rep := &RemedyReport{Deadline: cfg.RemedyDeadline}
		var mttrs []simtime.Duration
		for _, name := range fc.Hosts() {
			rep.fold(name, fc.Controller(name).Incidents(), &mttrs)
		}
		s := fc.Stats()
		rep.Executed, rep.Failed = s.Executed, s.Failed
		rep.MTTRp50Us = float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond)
		rep.MTTRp99Us = float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond)
		res.Remedy = rep
	}
	return res, nil
}
