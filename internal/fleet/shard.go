package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// ShardConfig tunes the sharded fleet engine.
type ShardConfig struct {
	// Shards is the number of independent shard groups. Zero means
	// AutoShards(len(hosts)); the count is clamped so no shard is
	// empty. One shard degenerates to the plain runner behind the
	// outer-epoch loop.
	Shards int
	// Workers is the worker-pool size per shard. Zero spreads
	// GOMAXPROCS across the shards (at least one per shard).
	Workers int
	// Epoch is the inner barrier interval within a shard — the same
	// quantity as runnerConfig.Epoch. Zero means 1ms.
	Epoch simtime.Duration
	// OuterEvery is how many inner epochs make one outer epoch — the
	// only point where shards synchronize. Zero means 4.
	OuterEvery int
	// Registry receives engine metrics. All shard runners share it
	// (metric registration is idempotent by name), so the classic
	// runner counters aggregate across shards. Nil works.
	Registry *obs.Registry
	// Bus, when set, receives every host's forwarded trace events,
	// per-shard inner epoch events (Subject "shard-NNN"), quarantine
	// events, and the outer fleet epoch event (Subject "fleet").
	Bus *obs.Bus
	// OnOuterEpoch, when set, runs on the caller's goroutine after
	// each outer barrier with every live host in every shard parked at
	// the same virtual time — the hook for fleet-level control.
	OnOuterEpoch func(OuterEpochStat)
}

// OuterEpochStat describes one completed outer epoch.
type OuterEpochStat struct {
	// Index counts outer epochs within one RunFor call, from 0.
	Index int
	// Target is the outer virtual-time barrier every shard reached.
	Target simtime.Time
	// HostsAdvanced counts host-epoch advances across all shards in
	// this outer epoch.
	HostsAdvanced int
	// InnerEpochs is the number of inner barriers each shard crossed
	// in this outer epoch.
	InnerEpochs int
}

// ShardReport summarizes one ShardedRunner.RunFor call.
type ShardReport struct {
	// OuterEpochs is the number of outer barriers crossed.
	OuterEpochs int
	// Epochs is the number of inner barriers every live shard crossed
	// (summed over outer epochs) — comparable to RunReport.Epochs.
	Epochs int
	// Target is the virtual time the fleet was asked to reach.
	Target simtime.Time
	// HostsAdvanced counts host-epoch advances across all shards.
	HostsAdvanced int
	// Failed maps quarantined host names to why, fleet-wide.
	Failed map[string]error
	// Aborted is true when the context was canceled before Target.
	// Each shard stops at its own last completed inner barrier; the
	// next RunFor realigns everyone at the first outer barrier.
	Aborted bool
}

// ShardStat is one shard's view for the stats endpoint.
type ShardStat struct {
	Index         int    `json:"index"`
	Hosts         int    `json:"hosts"`
	Quarantined   int    `json:"quarantined"`
	VirtualTimeNs int64  `json:"virtual_time_ns"`
	InnerEpochs   uint64 `json:"inner_epochs"`
	HostsAdvanced uint64 `json:"hosts_advanced"`
	// RollupRefolds counts how many times this shard's cached
	// snapshot was recomputed (cache misses attributed to it).
	RollupRefolds uint64 `json:"rollup_refolds"`
	// Dirty reports whether the shard has advanced or mutated since
	// its snapshot was last folded.
	Dirty bool `json:"dirty"`
}

// ShardStats is the fleet-wide sharding summary.
type ShardStats struct {
	Shards            []ShardStat `json:"shards"`
	OuterEpochs       uint64      `json:"outer_epochs"`
	InnerEpochNs      int64       `json:"inner_epoch_ns"`
	OuterEvery        int         `json:"outer_every"`
	WorkersPerShard   int         `json:"workers_per_shard"`
	RollupCacheHits   uint64      `json:"rollup_cache_hits"`
	RollupCacheMisses uint64      `json:"rollup_cache_misses"`
}

// AutoShards picks a shard count for n hosts: one shard per ~64
// hosts, clamped to [1, 128]. 64 keeps a shard's fold and epoch work
// cache-resident while leaving enough shards at 10k hosts (157 capped
// to 128) for the outer loop to spread across cores.
func AutoShards(n int) int {
	s := (n + 63) / 64
	if s < 1 {
		s = 1
	}
	if s > 128 {
		s = 128
	}
	return s
}

// shard is one independent shard group: a contiguous name-ordered
// slice of the fleet behind its own runner (worker pool, virtual
// clock, inner epoch loop, quarantine set).
type shard struct {
	index  int
	fleet  *Fleet
	runner *runner

	// dirty is set after the shard advances or one of its hosts is
	// mutated, and cleared when Rollup refolds the shard. Atomic so
	// the epoch goroutines and lock-free scrape handlers never race.
	dirty atomic.Bool
	// cached is the shard's folded snapshot; valid once cacheValid.
	// Both are guarded by ShardedRunner.rollupMu.
	cached     obs.Snapshot
	cacheValid bool

	innerEpochs   atomic.Uint64
	hostsAdvanced atomic.Uint64
	refolds       atomic.Uint64
}

// live reports how many of the shard's hosts are not quarantined.
func (sh *shard) live() int {
	return len(sh.fleet.hosts) - len(sh.runner.failed)
}

// ShardedRunner advances a fleet as S independent shard groups, each
// with its own worker pool, virtual clock, and inner epoch loop,
// synchronized only at a coarse outer epoch (outer = OuterEvery inner
// epochs). Within a shard the existing runner provides the exact
// single-barrier semantics; across shards only the outer barrier is
// shared, so shard i never waits on shard j's stragglers between
// inner epochs.
//
// Determinism survives sharding because hosts are independent
// simulations driven to absolute virtual-time targets: the inner
// barrier grid (start + k*Epoch) is the same no matter how hosts are
// partitioned, so each host's advance sequence — hence its journal
// and replay hash — is identical across shard and worker counts. The
// roll-up merge visits shards in index order over a contiguous
// name-ordered partition, which makes last-write-wins gauge folds
// byte-identical to the unsharded name-ordered fold.
//
// Like runner, a ShardedRunner is not safe for concurrent RunFor
// calls. Rollup and MarkDirty are safe to call concurrently with a
// running RunFor (they are what the lock-free scrape routes use);
// Stats, Now, and Failed read quarantine maps and so need the same
// external serialization against RunFor as runner's accessors — the
// HTTP layer's read lock provides it.
type ShardedRunner struct {
	fleet      *Fleet
	shards     []*shard
	shardOf    map[string]*shard
	inner      simtime.Duration
	outerEvery int
	workers    int
	bus        *obs.Bus
	onOuter    func(OuterEpochStat)

	outerEpochs atomic.Uint64

	// rollupMu guards the merge scratch and every shard's cached
	// snapshot. The scrape routes are served without the fleet lock,
	// so the roll-up path must carry its own synchronization.
	rollupMu    sync.Mutex
	mergeAcc    *obs.Accumulator
	merged      obs.Snapshot
	mergedValid bool

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	mOuterEpochs *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
}

// NewShardedRunner partitions the fleet's name-sorted hosts into
// contiguous shard groups and builds one runner per shard. Hosts
// added to the fleet afterwards are not picked up; build the sharded
// runner last (the same contract as runner's bus wiring).
func NewShardedRunner(f *Fleet, cfg ShardConfig) *ShardedRunner {
	hosts := f.Hosts()
	n := len(hosts)
	s := cfg.Shards
	if s <= 0 {
		s = AutoShards(n)
	}
	if n > 0 && s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	inner := cfg.Epoch
	if inner <= 0 {
		inner = simtime.Millisecond
	}
	outerEvery := cfg.OuterEvery
	if outerEvery <= 0 {
		outerEvery = 4
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / s
		if workers < 1 {
			workers = 1
		}
	}
	reg := cfg.Registry
	sr := &ShardedRunner{
		fleet:      f,
		shardOf:    make(map[string]*shard, n),
		inner:      inner,
		outerEvery: outerEvery,
		workers:    workers,
		bus:        cfg.Bus,
		onOuter:    cfg.OnOuterEpoch,
		mergeAcc:   obs.NewAccumulator("fleet"),
		mOuterEpochs: reg.Counter("ihnet_fleet_outer_epochs_total",
			"Outer epoch barriers crossed by the sharded fleet runner."),
		mCacheHits: reg.Counter("ihnet_fleet_rollup_cache_hits_total",
			"Shard roll-up snapshots served from cache."),
		mCacheMisses: reg.Counter("ihnet_fleet_rollup_cache_misses_total",
			"Shard roll-up snapshots refolded because the shard was dirty."),
	}
	for i := 0; i < s; i++ {
		chunk := hosts[i*n/s : (i+1)*n/s]
		sub := subFleet(chunk)
		sh := &shard{
			index: i,
			fleet: sub,
			runner: newRunner(sub, runnerConfig{
				Workers:      workers,
				Epoch:        inner,
				Registry:     reg,
				Bus:          cfg.Bus,
				EpochSubject: fmt.Sprintf("shard-%03d", i),
			}),
		}
		sh.dirty.Store(true) // nothing cached yet
		for _, h := range chunk {
			sr.shardOf[h.Name] = sh
		}
		sr.shards = append(sr.shards, sh)
	}
	return sr
}

// Shards returns the shard count.
func (sr *ShardedRunner) Shards() int { return len(sr.shards) }

// Workers returns the per-shard worker-pool size.
func (sr *ShardedRunner) Workers() int { return sr.workers }

// Epoch returns the inner barrier interval.
func (sr *ShardedRunner) Epoch() simtime.Duration { return sr.inner }

// OuterEvery returns how many inner epochs make one outer epoch.
func (sr *ShardedRunner) OuterEvery() int { return sr.outerEvery }

// Bus returns the fleet-level event bus, if configured.
func (sr *ShardedRunner) Bus() *obs.Bus { return sr.bus }

// Now returns the fleet's virtual time: the furthest shard clock.
// Between RunFor calls every shard with live hosts agrees on it.
func (sr *ShardedRunner) Now() simtime.Time {
	var now simtime.Time
	for _, sh := range sr.shards {
		if t := sh.runner.Now(); t > now {
			now = t
		}
	}
	return now
}

// Failed returns the quarantined hosts and why, fleet-wide.
func (sr *ShardedRunner) Failed() map[string]error {
	out := make(map[string]error)
	for _, sh := range sr.shards {
		for k, v := range sh.runner.failed {
			out[k] = v
		}
	}
	return out
}

// Live reports whether h is a host of this runner that is not
// quarantined. It is the eligibility predicate for Fleet.Place,
// Fleet.Rebalance and Fleet.ByPressure: a quarantined host's clock is
// frozen, so nothing placed on it would run. It reads the shards'
// quarantine sets in place, which stay the only record of quarantine.
func (sr *ShardedRunner) Live(h *Host) bool {
	sh := sr.shardOf[h.Name]
	if sh == nil {
		return false
	}
	_, bad := sh.runner.failed[h.Name]
	return !bad
}

// Quarantine fences a host out of its shard's epoch loop; the other
// shards never notice. Same semantics as runner.Quarantine.
func (sr *ShardedRunner) Quarantine(name string, reason error) error {
	sh := sr.shardOf[name]
	if sh == nil {
		return fmt.Errorf("fleet: unknown host %q", name)
	}
	return sh.runner.Quarantine(name, reason)
}

// Unquarantine readmits a host to its shard's epoch loop. The host
// catches up to the shard at the next inner barrier.
func (sr *ShardedRunner) Unquarantine(name string) bool {
	sh := sr.shardOf[name]
	if sh == nil {
		return false
	}
	return sh.runner.Unquarantine(name)
}

// MarkDirty records that the named host's metrics changed outside the
// epoch loop (placement, eviction, migration, snapshot, remediation),
// so the next Rollup refolds its shard. Returns false for unknown
// hosts.
func (sr *ShardedRunner) MarkDirty(name string) bool {
	sh := sr.shardOf[name]
	if sh == nil {
		return false
	}
	sh.dirty.Store(true)
	return true
}

// Replace swaps the named host's session for sess (see Host.Replace)
// and rewires the host into the engine: the new manager's events
// forward into the fleet bus, and the host's shard refolds at the next
// roll-up. The host keeps its shard; a restored clock behind the
// shard's catches up at the next barrier.
func (sr *ShardedRunner) Replace(name string, sess *snap.Session) error {
	sh := sr.shardOf[name]
	if sh == nil {
		return fmt.Errorf("fleet: unknown host %q", name)
	}
	h := sh.fleet.Host(name)
	h.Replace(sess)
	h.Mgr.Obs().Bus.ForwardTo(sr.bus, h.Name)
	sh.dirty.Store(true)
	return nil
}

// MarkAllDirty invalidates every shard's cached snapshot — the big
// hammer for fleet-wide mutations (rebalance, remedy sweeps).
func (sr *ShardedRunner) MarkAllDirty() {
	for _, sh := range sr.shards {
		sh.dirty.Store(true)
	}
}

// RunFor advances every live host by d: the outer loop walks outer
// barriers (OuterEvery inner epochs apart) and, for each, runs all
// shards concurrently to the barrier — each shard crossing its inner
// barriers independently on its own worker pool. Shards with no live
// hosts are skipped (their clocks stay frozen; readmitted hosts catch
// up at the next barrier they participate in).
func (sr *ShardedRunner) RunFor(ctx context.Context, d simtime.Duration) (ShardReport, error) {
	if d <= 0 {
		return ShardReport{}, fmt.Errorf("fleet: non-positive run duration %v", d)
	}
	start := sr.Now()
	target := start.Add(d)
	outerDur := simtime.Duration(sr.outerEvery) * sr.inner
	rep := ShardReport{Target: target}
	reports := make([]RunReport, len(sr.shards))
	for k := 0; ; k++ {
		barrier := start.Add(simtime.Duration(k+1) * outerDur)
		if barrier > target {
			barrier = target
		}
		if ctx != nil && ctx.Err() != nil {
			rep.Aborted = true
			break
		}
		var wg sync.WaitGroup
		for i, sh := range sr.shards {
			reports[i] = RunReport{}
			if sh.live() == 0 {
				continue
			}
			step := barrier.Sub(sh.runner.Now())
			if step <= 0 {
				continue
			}
			wg.Add(1)
			go func(i int, sh *shard, step simtime.Duration) {
				defer wg.Done()
				r, _ := sh.runner.RunFor(ctx, step)
				sh.innerEpochs.Add(uint64(r.Epochs))
				sh.hostsAdvanced.Add(uint64(r.HostsAdvanced))
				if r.HostsAdvanced > 0 {
					sh.dirty.Store(true)
				}
				reports[i] = r
			}(i, sh, step)
		}
		wg.Wait()
		inner, advanced := 0, 0
		for _, r := range reports {
			if r.Epochs > inner {
				inner = r.Epochs
			}
			advanced += r.HostsAdvanced
			if r.Aborted {
				rep.Aborted = true
			}
		}
		rep.Epochs += inner
		rep.HostsAdvanced += advanced
		if rep.Aborted {
			break
		}
		rep.OuterEpochs++
		sr.outerEpochs.Add(1)
		sr.mOuterEpochs.Inc()
		sr.bus.Publish(obs.Event{
			Kind: obs.KindFleetEpoch, Virtual: barrier,
			Subject: "fleet", Value: float64(advanced),
		})
		if sr.onOuter != nil {
			sr.onOuter(OuterEpochStat{
				Index: k, Target: barrier,
				HostsAdvanced: advanced, InnerEpochs: inner,
			})
		}
		if barrier == target {
			break
		}
	}
	rep.Failed = sr.Failed()
	if rep.Aborted && ctx != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// Rollup returns the fleet snapshot, hierarchically: each dirty shard
// is refolded (O(its hosts)) into its cached per-shard snapshot, then
// the S shard snapshots merge in shard order. A scrape between
// advances touches no host registry at all — it reuses every shard's
// cache and, when nothing is dirty, returns the cached merge
// directly. Cost is O(dirty shards x shard size + S), not O(hosts).
//
// The returned snapshot is shared with the cache: treat it as
// read-only.
func (sr *ShardedRunner) Rollup() obs.Snapshot {
	sr.rollupMu.Lock()
	defer sr.rollupMu.Unlock()
	misses := 0
	for _, sh := range sr.shards {
		if wasDirty := sh.dirty.Swap(false); sh.cacheValid && !wasDirty {
			continue
		}
		sh.cached = sh.runner.Rollup()
		sh.cacheValid = true
		sh.refolds.Add(1)
		misses++
	}
	hits := len(sr.shards) - misses
	sr.cacheHits.Add(uint64(hits))
	sr.mCacheHits.Add(uint64(hits))
	sr.cacheMisses.Add(uint64(misses))
	sr.mCacheMisses.Add(uint64(misses))
	if misses == 0 && sr.mergedValid {
		return sr.merged
	}
	sr.mergeAcc.Reset()
	for _, sh := range sr.shards {
		sr.mergeAcc.AddSnapshot(sh.cached)
	}
	sr.merged = sr.mergeAcc.Snapshot()
	sr.mergedValid = true
	return sr.merged
}

// Stats reports per-shard and cache state for the stats endpoint.
func (sr *ShardedRunner) Stats() ShardStats {
	st := ShardStats{
		Shards:            make([]ShardStat, 0, len(sr.shards)),
		OuterEpochs:       sr.outerEpochs.Load(),
		InnerEpochNs:      int64(sr.inner),
		OuterEvery:        sr.outerEvery,
		WorkersPerShard:   sr.workers,
		RollupCacheHits:   sr.cacheHits.Load(),
		RollupCacheMisses: sr.cacheMisses.Load(),
	}
	for _, sh := range sr.shards {
		st.Shards = append(st.Shards, ShardStat{
			Index:         sh.index,
			Hosts:         len(sh.fleet.hosts),
			Quarantined:   len(sh.runner.failed),
			VirtualTimeNs: int64(sh.runner.Now()),
			InnerEpochs:   sh.innerEpochs.Load(),
			HostsAdvanced: sh.hostsAdvanced.Load(),
			RollupRefolds: sh.refolds.Load(),
			Dirty:         sh.dirty.Load(),
		})
	}
	return st
}
