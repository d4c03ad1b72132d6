package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// runnerConfig tunes the parallel fleet execution engine.
type runnerConfig struct {
	// Workers is the number of goroutines advancing hosts. Zero means
	// GOMAXPROCS; one degenerates to the serial loop (useful as the
	// baseline in benchmarks and determinism checks).
	Workers int
	// Epoch is the barrier interval: every host is advanced to the same
	// virtual-time boundary before any host starts the next interval,
	// so fleet-level reads (pressure, rebalance, migration) always
	// observe hosts at one instant. Zero means 1ms.
	Epoch simtime.Duration
	// Registry receives the runner's metrics. Nil works (metrics are
	// kept but not exported), matching the obs package's contract.
	Registry *obs.Registry
	// OnEpoch, when set, runs on the caller's goroutine after each
	// barrier with every host parked at the same virtual time. This is
	// the hook for fleet-level control decisions between epochs.
	OnEpoch func(EpochStat)
	// Bus, when set, is the fleet-level event stream: every host's
	// trace bus forwards into it (events tagged with the host name),
	// and the runner publishes its own epoch and quarantine events
	// there — one SSE subscription observes the whole fleet.
	Bus *obs.Bus
	// EpochSubject is the Subject carried by the runner's epoch events
	// on the bus. Empty means "fleet"; the sharded engine names each
	// shard's runner (e.g. "shard-03") so stream consumers can tell
	// inner (per-shard) barriers from the outer fleet barrier.
	EpochSubject string
}

// HostResult is one host's outcome for one epoch.
type HostResult struct {
	// Host is the host name; results are always in name order.
	Host string
	// Now is the host's virtual time after the epoch.
	Now simtime.Time
	// Wall is how long the advance took in wall-clock time — the
	// straggler signal.
	Wall time.Duration
	// Err is non-nil when the host's simulation panicked or refused the
	// advance. A failed host is quarantined: it is excluded from all
	// subsequent epochs so one bad host cannot corrupt its siblings.
	Err error
}

// EpochStat describes one completed epoch.
type EpochStat struct {
	// Index counts epochs within one RunFor call, starting at 0.
	Index int
	// Target is the virtual-time barrier every live host reached.
	Target simtime.Time
	// Results holds one entry per host that participated, sorted by
	// host name. The ordering is deterministic by construction: results
	// are merged by name-sorted index, never by completion order.
	Results []HostResult
}

// RunReport summarizes one RunFor call.
type RunReport struct {
	// Epochs is the number of barriers crossed.
	Epochs int
	// Target is the virtual time the fleet was asked to reach.
	Target simtime.Time
	// HostsAdvanced counts host-epoch advances performed.
	HostsAdvanced int
	// Failed maps quarantined host names to the error that stopped
	// them (including hosts quarantined in earlier RunFor calls).
	Failed map[string]error
	// Aborted is true when the context was canceled before Target; the
	// fleet is left aligned at the last completed barrier, never
	// mid-epoch.
	Aborted bool
}

// runner advances every host of a fleet concurrently, one goroutine
// per worker with hosts sharded across workers, synchronized by epoch
// barriers. Hosts are independent simulations, so running them on
// different goroutines cannot change any host's results — the runner's
// job is to preserve that determinism at the fleet level: barriers
// keep all hosts at one virtual time between epochs, and per-epoch
// results are merged in host-name order regardless of which worker
// finished first.
//
// A runner is not safe for concurrent use; callers (the HTTP fleet
// server, the daemon's auto-advance loop) serialize RunFor calls.
type runner struct {
	fleet        *Fleet
	workers      int
	epoch        simtime.Duration
	onEpoch      func(EpochStat)
	failed       map[string]error
	bus          *obs.Bus
	epochSubject string

	// rollupAcc is the reused fold scratch: Rollup refolds into it
	// under rollupMu instead of allocating a fresh accumulator (and a
	// fresh dense bucket array per histogram family) on every scrape.
	// The mutex exists because /metrics and the roll-up route are
	// served lock-free by the HTTP layer, so scrapes can race.
	rollupMu  sync.Mutex
	rollupAcc *obs.Accumulator

	mEpochs        *obs.Counter
	mHostsAdvanced *obs.Counter
	mHostFailures  *obs.Counter
	mStragglers    *obs.Counter
	hEpochSeconds  *obs.Histogram
	hStragglerX    *obs.Histogram
}

// newRunner builds a parallel runner over the fleet.
func newRunner(f *Fleet, cfg runnerConfig) *runner {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	epoch := cfg.Epoch
	if epoch <= 0 {
		epoch = simtime.Millisecond
	}
	reg := cfg.Registry
	if cfg.Bus != nil {
		// Fan every host's event stream into the fleet bus, tagged with
		// the host name. Hosts added to the fleet after runner
		// construction are not auto-wired; build the runner last.
		for _, h := range f.Hosts() {
			h.Mgr.Obs().Tracer.Bus().ForwardTo(cfg.Bus, h.Name)
		}
	}
	subject := cfg.EpochSubject
	if subject == "" {
		subject = "fleet"
	}
	return &runner{
		fleet:        f,
		workers:      workers,
		epoch:        epoch,
		onEpoch:      cfg.OnEpoch,
		failed:       make(map[string]error),
		bus:          cfg.Bus,
		epochSubject: subject,
		rollupAcc:    obs.NewAccumulator("fleet"),
		mEpochs: reg.Counter("ihnet_fleet_epochs_total",
			"Epoch barriers crossed by the fleet runner."),
		mHostsAdvanced: reg.Counter("ihnet_fleet_hosts_advanced_total",
			"Host-epoch advances performed by the fleet runner."),
		mHostFailures: reg.Counter("ihnet_fleet_host_failures_total",
			"Hosts quarantined after a mid-epoch failure."),
		mStragglers: reg.Counter("ihnet_fleet_straggler_epochs_total",
			"Epochs whose slowest host took more than twice the mean."),
		hEpochSeconds: reg.Histogram("ihnet_fleet_epoch_duration_seconds",
			"Wall-clock time per fleet epoch (all hosts to the barrier)."),
		hStragglerX: reg.Histogram("ihnet_fleet_straggler_ratio",
			"Slowest host's wall time over the epoch mean."),
	}
}

// Workers returns the configured worker count.
func (r *runner) Workers() int { return r.workers }

// Epoch returns the barrier interval.
func (r *runner) Epoch() simtime.Duration { return r.epoch }

// Failed returns the quarantined hosts and why, keyed by name.
func (r *runner) Failed() map[string]error {
	out := make(map[string]error, len(r.failed))
	for k, v := range r.failed {
		out[k] = v
	}
	return out
}

// Quarantine excludes a host from subsequent epochs, as if it had
// failed mid-epoch — the operator-initiated form of the runner's
// panic quarantine, used to fence a suspect host without stopping the
// fleet. The host's clock freezes where it is; it keeps its state and
// journal.
func (r *runner) Quarantine(name string, reason error) error {
	if r.fleet.Host(name) == nil {
		return fmt.Errorf("fleet: unknown host %q", name)
	}
	if _, ok := r.failed[name]; ok {
		return fmt.Errorf("fleet: host %q already quarantined", name)
	}
	if reason == nil {
		reason = fmt.Errorf("fleet: host %q quarantined by operator", name)
	}
	r.failed[name] = reason
	r.mHostFailures.Inc()
	r.bus.Publish(obs.Event{
		Kind: obs.KindHostQuarantine, Virtual: r.Now(),
		Subject: name, Detail: reason.Error(),
	})
	return nil
}

// Unquarantine readmits a host to the epoch loop. Its lagging clock
// catches up at the next barrier (every epoch drives all live hosts to
// one shared absolute target). Returns false when the host was not
// quarantined.
func (r *runner) Unquarantine(name string) bool {
	if _, ok := r.failed[name]; !ok {
		return false
	}
	delete(r.failed, name)
	return true
}

// Now returns the fleet's virtual time: the furthest live host's
// clock. Between RunFor calls all live hosts agree on it (they parked
// at the same barrier); quarantined hosts may lag behind.
func (r *runner) Now() simtime.Time {
	var now simtime.Time
	for _, h := range r.fleet.hostsSorted() {
		if _, bad := r.failed[h.Name]; bad {
			continue
		}
		if t := h.Mgr.Engine().Now(); t > now {
			now = t
		}
	}
	return now
}

// RunFor advances every live host by d, in epochs. Hosts whose clocks
// lag the fleet (a freshly added host, a restored one) catch up at the
// first barrier: each epoch drives every host to one shared absolute
// target time. On context cancellation the run stops cleanly at the
// last completed barrier — no host is left mid-epoch and no partial
// results are merged.
func (r *runner) RunFor(ctx context.Context, d simtime.Duration) (RunReport, error) {
	if d <= 0 {
		return RunReport{}, fmt.Errorf("fleet: non-positive run duration %v", d)
	}
	start := r.Now()
	target := start.Add(d)
	rep := RunReport{Target: target}
	for k := 0; ; k++ {
		barrier := start.Add(simtime.Duration(k+1) * r.epoch)
		if barrier > target {
			barrier = target
		}
		if ctx != nil && ctx.Err() != nil {
			rep.Aborted = true
			break
		}
		results, live := r.runEpoch(barrier)
		rep.Epochs++
		rep.HostsAdvanced += live
		r.mEpochs.Inc()
		r.mHostsAdvanced.Add(uint64(live))
		if r.onEpoch != nil {
			r.onEpoch(EpochStat{Index: k, Target: barrier, Results: results})
		}
		if barrier == target {
			break
		}
	}
	rep.Failed = r.Failed()
	if rep.Aborted && ctx != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// runEpoch drives every non-quarantined host to the barrier on the
// worker pool and merges results by name-sorted index. It returns the
// merged results and how many hosts advanced without error.
func (r *runner) runEpoch(barrier simtime.Time) ([]HostResult, int) {
	all := r.fleet.hostsSorted() // name-sorted, not retained
	live := all[:0:0]
	for _, h := range all {
		if _, bad := r.failed[h.Name]; !bad {
			live = append(live, h)
		}
	}
	results := make([]HostResult, len(live))
	epochStart := time.Now()
	if len(live) > 0 {
		workers := min(r.workers, len(live))
		if workers == 1 {
			for i, h := range live {
				results[i] = advanceHost(h, barrier)
			}
		} else {
			// Workers pull host indices from a channel and write results
			// into disjoint slots, so the merge is free of both locks and
			// completion-order nondeterminism.
			idx := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idx {
						results[i] = advanceHost(live[i], barrier)
					}
				}()
			}
			for i := range live {
				idx <- i
			}
			close(idx)
			wg.Wait()
		}
	}
	ok := 0
	var slowest, total time.Duration
	for _, res := range results {
		if res.Err != nil {
			r.failed[res.Host] = res.Err
			r.mHostFailures.Inc()
			r.bus.Publish(obs.Event{
				Kind: obs.KindHostQuarantine, Virtual: barrier,
				Subject: res.Host, Detail: res.Err.Error(),
			})
			continue
		}
		ok++
		total += res.Wall
		if res.Wall > slowest {
			slowest = res.Wall
		}
	}
	epochWall := time.Since(epochStart)
	r.hEpochSeconds.Observe(epochWall.Seconds())
	r.bus.Publish(obs.Event{
		Kind: obs.KindFleetEpoch, Virtual: barrier,
		Subject: r.epochSubject, Value: float64(ok), WallDur: epochWall,
	})
	if ok > 1 {
		mean := total / time.Duration(ok)
		if mean > 0 {
			ratio := float64(slowest) / float64(mean)
			r.hStragglerX.Observe(ratio)
			if ratio > 2 {
				r.mStragglers.Inc()
			}
		}
	}
	return results, ok
}

// Rollup folds every host's metrics registry into one fleet snapshot:
// counters sum, gauges keep the last (name-ordered) host's value
// tagged with its source, histograms merge bucket-wise with quantile
// error bounds intact. Hosts are visited in name order, so equal
// per-host metrics give byte-identical roll-ups regardless of worker
// count. Quarantined hosts are included — their metrics still
// describe real state, frozen at quarantine time.
//
// Cost is O(hosts x metrics) — flat per host, via the dense
// accumulator — and it reads only atomics and per-metric locks, so it
// is safe to call while the runner is mid-epoch (scrapes observe a
// torn but monitoring-consistent view, same as single-host /metrics).
// The fold reuses one per-runner scratch accumulator (Reset zeroes
// only occupied watermark ranges), so scrape allocation cost does not
// grow with host count; rollupMu serializes concurrent scrapes.
func (r *runner) Rollup() obs.Snapshot {
	r.rollupMu.Lock()
	defer r.rollupMu.Unlock()
	r.rollupAcc.Reset()
	for _, h := range r.fleet.hostsSorted() {
		r.rollupAcc.AddRegistry(h.Mgr.Obs().Registry, h.Name)
	}
	return r.rollupAcc.Snapshot()
}

// Bus returns the fleet-level event bus, if configured.
func (r *runner) Bus() *obs.Bus { return r.bus }

// advanceHost drives one host to the barrier, converting panics in the
// host's simulation into a per-host error so one broken host cannot
// take down the epoch (or the process).
func advanceHost(h *Host, barrier simtime.Time) (res HostResult) {
	res.Host = h.Name
	t0 := time.Now()
	defer func() {
		res.Wall = time.Since(t0)
		res.Now = h.Mgr.Engine().Now()
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("fleet: host %s failed mid-epoch: %v", h.Name, p)
		}
	}()
	res.Err = h.advanceTo(barrier)
	return res
}
