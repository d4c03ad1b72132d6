package fleet

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/simtime"
)

// benchFleet builds n plain (non-recording) synthetic hosts with one
// admitted tenant each, so every host-millisecond carries heartbeat,
// telemetry, arbiter and monitor work.
func benchFleet(b *testing.B, n int) *Fleet {
	b.Helper()
	f, err := Synth(SynthSpec{Hosts: n, Seed: 1, Workload: true})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFleetRunFor measures one millisecond of fleet virtual time
// per iteration: the serial host-by-host loop against the parallel
// epoch-barrier runner at the classic tiers, and the sharded engine
// at 1024 and 10000 hosts (where a single global barrier would make
// every epoch wait on the slowest of 10k hosts). The serial/parallel
// ratio at a given host count is the runner's speedup (the CI
// acceptance bar is >= 4x at 64 hosts on a multi-core runner).
func BenchmarkFleetRunFor(b *testing.B) {
	for _, hosts := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("hosts=%d/serial", hosts), func(b *testing.B) {
			f := benchFleet(b, hosts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.RunFor(simtime.Millisecond)
			}
			b.ReportMetric(float64(hosts)*float64(b.N)/b.Elapsed().Seconds(), "host-ms/s")
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
