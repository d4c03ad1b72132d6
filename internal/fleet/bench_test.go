package fleet

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// benchFleet builds n recording synthetic hosts — what ihnetd serves —
// with one admitted tenant each, so every host-millisecond carries
// heartbeat, telemetry, arbiter and monitor work.
func benchFleet(b *testing.B, n int) *Fleet {
	b.Helper()
	f, err := Synth(SynthSpec{Hosts: n, Seed: 1, Workload: true})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFleetRunFor measures one millisecond of fleet virtual time
// per iteration: the one-worker runner against the parallel
// epoch-barrier runner at the classic tiers, and the sharded engine
// at 1024 and 10000 hosts (where a single global barrier would make
// every epoch wait on the slowest of 10k hosts). The serial/parallel
// ratio at a given host count is the runner's speedup (the CI
// acceptance bar is >= 4x at 64 hosts on a multi-core runner). The
// serial tiers report allocs_per_host_ms, the heap allocations of one
// host's virtual millisecond at steady state, which BENCH_obs.json
// budgets at 64 hosts: they first run ringWarmup, so the telemetry and
// event rings have opened every chunk before the count starts.
func BenchmarkFleetRunFor(b *testing.B) {
	for _, hosts := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("hosts=%d/serial", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			r := newRunner(f, runnerConfig{Workers: 1})
			if _, err := r.RunFor(context.Background(), ringWarmup); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunFor(context.Background(), simtime.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(hosts)*float64(b.N)/b.Elapsed().Seconds(), "host-ms/s")
			// One op is one virtual millisecond of every host.
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(hosts), "allocs_per_host_ms")
		})
		b.Run(fmt.Sprintf("hosts=%d/parallel", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			r := newRunner(f, runnerConfig{Workers: runtime.GOMAXPROCS(0)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunFor(context.Background(), simtime.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hosts)*float64(b.N)/b.Elapsed().Seconds(), "host-ms/s")
		})
	}
	for _, hosts := range []int{1024, 10000} {
		b.Run(fmt.Sprintf("hosts=%d/sharded", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			sr := NewShardedRunner(f, ShardConfig{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sr.RunFor(context.Background(), simtime.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hosts)*float64(b.N)/b.Elapsed().Seconds(), "host-ms/s")
		})
	}
}

// ringWarmup is the virtual time after which a benchFleet host's rings
// stop growing: its telemetry ring opens its last chunk at about 250
// ms.
const ringWarmup = 300 * simtime.Millisecond

// BenchmarkFleetRollup measures the steady-state scrape: between two
// scrapes one host mutated (the worst common case for the dirty-shard
// cache), so each iteration refolds exactly one shard and re-merges
// the S cached shard snapshots. The ns/host metric is the acceptance
// bar: hierarchical roll-up keeps it flat-to-falling as hosts grow
// (at 1024 hosts a scrape folds one 64-host shard plus a 16-way
// merge, not 1024 registries).
func BenchmarkFleetRollup(b *testing.B) {
	for _, hosts := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			sr := NewShardedRunner(f, ShardConfig{})
			if _, err := sr.RunFor(context.Background(), simtime.Millisecond); err != nil {
				b.Fatal(err)
			}
			names := make([]string, 0, hosts)
			for _, h := range f.Hosts() {
				names = append(names, h.Name)
			}
			sr.Rollup() // prime every shard's cache
			b.ReportAllocs()
			b.ResetTimer()
			var last int
			for i := 0; i < b.N; i++ {
				sr.MarkDirty(names[i%len(names)])
				s := sr.Rollup()
				last = s.Hosts
			}
			b.StopTimer()
			if last != hosts {
				b.Fatalf("rollup folded %d hosts, want %d", last, hosts)
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(hosts)*1e9, "ns/host")
		})
	}
}

// BenchmarkFleetRollupCold measures the all-shards-dirty fold — the
// first scrape after a fleet-wide advance. This is the path the
// scratch-accumulator reuse keeps allocation-flat: refolding every
// registry reuses per-runner accumulators, so allocs/op stays
// O(metric families), not O(hosts).
func BenchmarkFleetRollupCold(b *testing.B) {
	for _, hosts := range []int{256, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			sr := NewShardedRunner(f, ShardConfig{})
			if _, err := sr.RunFor(context.Background(), simtime.Millisecond); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last int
			for i := 0; i < b.N; i++ {
				sr.MarkAllDirty()
				s := sr.Rollup()
				last = s.Hosts
			}
			b.StopTimer()
			if last != hosts {
				b.Fatalf("rollup folded %d hosts, want %d", last, hosts)
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(hosts)*1e9, "ns/host")
		})
	}
}

// BenchmarkFleetBytesPerHost measures what one host costs to keep
// resident: heap in use after a GC, net of the heap before the build,
// divided by the host count, for a 64-host recording fleet with one
// tenant each (the shape `ihnetd -synth-hosts` boots). The build is
// deterministic, so bytes_per_host is budgeted like an allocation
// count.
func BenchmarkFleetBytesPerHost(b *testing.B) {
	const hosts = 64
	var perHost float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := Synth(SynthSpec{Hosts: hosts, Seed: 1, Workload: true})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(f)
		perHost = float64(after.HeapInuse-before.HeapInuse) / hosts
	}
	b.ReportMetric(perHost, "bytes_per_host")
}

// BenchmarkHostPressure reads one host's pressure — what /fleet/hosts
// does once per host and placement once per host per decision. The
// arbiter keeps the figure current, so a read is budgeted at 0
// allocs/op.
func BenchmarkHostPressure(b *testing.B) {
	h := benchFleet(b, 1).Hosts()[0]
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += h.Pressure()
	}
	if sum < 0 {
		b.Fatal("negative pressure")
	}
}

// BenchmarkFleetPlace measures one least-pressure placement and its
// eviction on a fleet of recording hosts, with the runner's Live
// predicate as ihnetd passes it: the pressure ordering (one O(1) read
// per host, then a sort), one admission through the chosen host's
// journaled session, and the Locate scan behind Evict.
func BenchmarkFleetPlace(b *testing.B) {
	targets := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(4)}}
	for _, hosts := range []int{128, 512} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			sr := NewShardedRunner(f, ShardConfig{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.Place("bench", targets, sr.Live); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Evict("bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
