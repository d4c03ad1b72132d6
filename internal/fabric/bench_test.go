package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// benchPaths returns a deterministic set of shortest paths between
// random distinct endpoint pairs of the topology.
func benchPaths(b *testing.B, topo *topology.Topology, seed int64, n int) []topology.Path {
	b.Helper()
	eps := topo.Endpoints()
	rng := rand.New(rand.NewSource(seed))
	out := make([]topology.Path, 0, n)
	for len(out) < n {
		src := eps[rng.Intn(len(eps))].ID
		dst := eps[rng.Intn(len(eps))].ID
		if src == dst {
			continue
		}
		p, err := topo.ShortestPath(src, dst)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

var benchTenants = []TenantID{"a", "b", "c", "d"}

// benchPopulate installs n background flows: persistent, with a demand
// on every fourth flow so the max-min filling has both link and demand
// bottlenecks to work through.
func benchPopulate(b *testing.B, f *Fabric, paths []topology.Path, n int) []*Flow {
	b.Helper()
	flows := make([]*Flow, n)
	f.Batch(func() {
		for i := 0; i < n; i++ {
			fl := &Flow{
				Tenant: benchTenants[i%len(benchTenants)],
				Path:   paths[i%len(paths)],
				Weight: float64(1 + i%3),
			}
			if i%4 == 0 {
				fl.Demand = topology.Gbps(float64(1 + i%16))
			}
			if err := f.AddFlow(fl); err != nil {
				b.Fatal(err)
			}
			flows[i] = fl
		}
	})
	return flows
}

// BenchmarkFabricFlowChurn measures the full per-event cost of flow
// churn against n resident flows: each iteration removes one resident,
// installs a sized replacement, and advances virtual time far enough
// for the transfer to complete — so one op covers add, recompute,
// completion scheduling, completion, and removal.
func BenchmarkFabricFlowChurn(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			engine := simtime.NewEngine(1)
			topo := topology.DGXStyle()
			f := New(topo, engine, DefaultConfig())
			paths := benchPaths(b, topo, 42, 64)
			ring := benchPopulate(b, f, paths, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % n
				f.RemoveFlow(ring[slot])
				fl := &Flow{
					Tenant:     benchTenants[i%len(benchTenants)],
					Path:       paths[(i*7)%len(paths)],
					Size:       4096,
					OnComplete: func(simtime.Time) {},
				}
				if err := f.AddFlow(fl); err != nil {
					b.Fatal(err)
				}
				ring[slot] = fl
				engine.RunFor(100 * simtime.Microsecond)
			}
		})
	}
}

// islandTopology builds a connected topology of n three-node islands
// (src — switch — dst) joined by spine links that no benchmark flow
// ever crosses: flows stay within their island, so the fabric's
// constraint graph partitions into n independent components even
// though the topology itself is connected.
func islandTopology(n int) *topology.Topology {
	t := topology.New("islands")
	for i := 0; i < n; i++ {
		src := topology.CompID(fmt.Sprintf("src%d", i))
		sw := topology.CompID(fmt.Sprintf("sw%d", i))
		dst := topology.CompID(fmt.Sprintf("dst%d", i))
		t.MustAddComponent(src, topology.KindGPU, i)
		t.MustAddComponent(sw, topology.KindPCIeSwitch, i)
		t.MustAddComponent(dst, topology.KindGPU, i)
		t.MustAddLink(topology.LinkSpec{A: src, B: sw, Class: topology.ClassPCIeDown,
			Capacity: topology.Gbps(200), BaseLatency: simtime.Microsecond})
		t.MustAddLink(topology.LinkSpec{A: sw, B: dst, Class: topology.ClassPCIeDown,
			Capacity: topology.Gbps(200), BaseLatency: simtime.Microsecond})
		if i > 0 {
			prev := topology.CompID(fmt.Sprintf("sw%d", i-1))
			t.MustAddLink(topology.LinkSpec{A: prev, B: sw, Class: topology.ClassInterHost,
				Capacity: topology.Gbps(400), BaseLatency: simtime.Microsecond})
		}
	}
	return t
}

// benchIslands installs flowsPer flows on each of n islands and
// returns the populated fabric.
func benchIslands(b *testing.B, n, flowsPer int) (*simtime.Engine, *Fabric) {
	b.Helper()
	engine := simtime.NewEngine(1)
	topo := islandTopology(n)
	f := New(topo, engine, DefaultConfig())
	f.Batch(func() {
		for i := 0; i < n; i++ {
			src := topology.CompID(fmt.Sprintf("src%d", i))
			dst := topology.CompID(fmt.Sprintf("dst%d", i))
			p, err := topo.ShortestPath(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < flowsPer; j++ {
				fl := &Flow{
					Tenant: benchTenants[j%len(benchTenants)],
					Path:   p,
					Weight: float64(1 + j%3),
				}
				if j%4 == 0 {
					fl.Demand = topology.Gbps(float64(1 + j%16))
				}
				if err := f.AddFlow(fl); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	return engine, f
}

// BenchmarkFabricComponentSolve measures a full re-solve of a fabric
// whose constraint graph splits into 64 independent components
// (islandTopology): every link is marked dirty, so each iteration
// solves all 64 components one after another.
func BenchmarkFabricComponentSolve(b *testing.B) {
	const islands, flowsPer = 64, 256
	_, f := benchIslands(b, islands, flowsPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.markAllLinksDirty()
		f.dirty = true
		f.recomputeIfDirty()
	}
}

// BenchmarkFabricRecomputeSteadyState measures one demand-update →
// recompute cycle at 1k resident flows with no churn: the structure of
// the constraint system is unchanged between iterations, so this is
// the path the arbiter's control loop pays on every adjustment round.
// The CI alloc budget pins this benchmark at zero allocations per op.
func BenchmarkFabricRecomputeSteadyState(b *testing.B) {
	engine := simtime.NewEngine(1)
	topo := topology.DGXStyle()
	f := New(topo, engine, DefaultConfig())
	paths := benchPaths(b, topo, 42, 64)
	flows := benchPopulate(b, f, paths, 1000)
	// Every flow carries a demand so demand updates never toggle a
	// constraint in or out of existence.
	for i, fl := range flows {
		if err := f.SetDemand(fl, topology.Gbps(float64(2+i%10))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl := flows[i%len(flows)]
		d := topology.Gbps(float64(2 + (i+1)%10))
		if err := f.SetDemand(fl, d); err != nil {
			b.Fatal(err)
		}
	}
}
