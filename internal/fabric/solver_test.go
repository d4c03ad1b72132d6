package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// solverChurnSchedule drives one randomized mutation schedule against
// a fabric: admits, removals, cap changes and batches. The schedule
// deliberately mixes intra-island flows (many small components),
// spine-crossing flows (component merges), and removals past the
// rebuild threshold (component splits), so the union-find partition is
// churned in both directions while the dirty-region solver keeps
// re-solving only the components each mutation touched.
type solverChurnSchedule struct {
	t        *testing.T
	rng      *rand.Rand
	topo     *topology.Topology
	f        *Fabric
	islands  int
	live     []*Flow
	capped   map[string]bool
	capLinks []topology.LinkID
}

func (s *solverChurnSchedule) path(src, dst topology.CompID) topology.Path {
	s.t.Helper()
	p, err := s.topo.ShortestPath(src, dst)
	if err != nil {
		s.t.Fatalf("shortest path %s->%s: %v", src, dst, err)
	}
	return p
}

// randPath picks an intra-island path most of the time and a
// spine-crossing (component-merging) path the rest.
func (s *solverChurnSchedule) randPath() topology.Path {
	i := s.rng.Intn(s.islands)
	src := topology.CompID(fmt.Sprintf("src%d", i))
	if s.rng.Intn(10) < 3 {
		j := s.rng.Intn(s.islands)
		if j != i {
			return s.path(src, topology.CompID(fmt.Sprintf("dst%d", j)))
		}
	}
	return s.path(src, topology.CompID(fmt.Sprintf("dst%d", i)))
}

func (s *solverChurnSchedule) admit() {
	s.t.Helper()
	p := s.randPath()
	tenant := benchTenants[s.rng.Intn(len(benchTenants))]
	weight := float64(1 + s.rng.Intn(3))
	var demand topology.Rate
	if s.rng.Intn(3) == 0 {
		demand = topology.Gbps(float64(1 + s.rng.Intn(20)))
	}
	fl := &Flow{Tenant: tenant, Path: p, Weight: weight, Demand: demand}
	if err := s.f.AddFlow(fl); err != nil {
		s.t.Fatalf("AddFlow: %v", err)
	}
	s.live = append(s.live, fl)
}

func (s *solverChurnSchedule) remove() {
	if len(s.live) == 0 {
		return
	}
	i := s.rng.Intn(len(s.live))
	s.f.RemoveFlow(s.live[i])
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
}

// toggleCap sets or clears a per-(link,tenant) cap on a random spine
// or island link.
func (s *solverChurnSchedule) toggleCap() {
	s.t.Helper()
	link := s.capLinks[s.rng.Intn(len(s.capLinks))]
	tenant := benchTenants[s.rng.Intn(len(benchTenants))]
	key := string(link) + "/" + string(tenant)
	if s.capped[key] {
		if err := s.f.ClearTenantCap(link, tenant); err != nil {
			s.t.Fatalf("ClearTenantCap: %v", err)
		}
		delete(s.capped, key)
		return
	}
	cap := topology.Gbps(float64(5 + s.rng.Intn(50)))
	if err := s.f.SetTenantCap(link, tenant, cap); err != nil {
		s.t.Fatalf("SetTenantCap: %v", err)
	}
	s.capped[key] = true
}

// TestSolverChurnMatchesReference is the dirty-region solver's
// partition gate: across seeded random component merges, splits past
// the amortized rebuild threshold, and a batch that coalesces many
// mutations into one settle, every flow rate must match the reference
// solver (a full re-solve over the whole constraint system) bit for
// bit after every step.
func TestSolverChurnMatchesReference(t *testing.T) {
	const islands = 12
	topo := islandTopology(islands)
	s := &solverChurnSchedule{
		t:       t,
		rng:     rand.New(rand.NewSource(97)),
		topo:    topo,
		f:       New(topo, simtime.NewEngine(1), DefaultConfig()),
		islands: islands,
		capped:  make(map[string]bool),
	}
	for i := 0; i < islands; i++ {
		p := s.path(topology.CompID(fmt.Sprintf("src%d", i)),
			topology.CompID(fmt.Sprintf("dst%d", i)))
		for _, l := range p.Links {
			s.capLinks = append(s.capLinks, l.ID)
		}
	}

	// step applies one mutation, checks every rate against the
	// reference, and returns how the live component count moved.
	// Removals never split a component until the amortized rebuild
	// runs, so a removal after which the count grew is a rebuild that
	// refined the partition; an admit after which it shrank merged
	// components.
	var merges, splits int
	step := func(name string, op func()) int {
		before := s.f.SolverStats().Components
		op()
		compareWithReference(t, s.f, name)
		return s.f.SolverStats().Components - before
	}
	admit := func(name string) {
		if step(name, s.admit) < 0 {
			merges++
		}
	}
	remove := func(name string) {
		if step(name, s.remove) > 0 {
			splits++
		}
	}
	// Three rounds of random churn, each drained down to a few flows:
	// spine-crossing admits merge islands, and the drain removes
	// enough bridging flows to cross the rebuild threshold.
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("round %d step %d", round, i)
			switch op := s.rng.Intn(10); {
			case op < 5 || len(s.live) == 0:
				admit(name)
			case op < 8:
				remove(name)
			default:
				step(name, s.toggleCap)
			}
		}
		for i := 0; len(s.live) > islands/2; i++ {
			remove(fmt.Sprintf("round %d drain %d", round, i))
		}
	}
	if merges == 0 || splits == 0 {
		t.Fatalf("schedule did not churn the partition both ways: %d merges, %d splits", merges, splits)
	}

	// A burst of batched mutations must coalesce into one settle and
	// still match the reference.
	s.rng = rand.New(rand.NewSource(11))
	before := s.f.SolverStats().Solves
	s.f.Batch(func() {
		for i := 0; i < 40; i++ {
			s.admit()
		}
		for i := 0; i < 15; i++ {
			s.remove()
		}
	})
	compareWithReference(t, s.f, "batch")
	if n := s.f.SolverStats().Solves - before; n != 1 {
		t.Fatalf("batch settled in %d solves, want 1", n)
	}
}

// TestSolverPartitionRebuildKeepsParity drains a fully-merged fabric
// back down to singleton islands, crossing the amortized partition
// rebuild, and checks the refined partition still yields reference
// rates (the rebuild may only refine bookkeeping, never rates).
func TestSolverPartitionRebuildKeepsParity(t *testing.T) {
	// 31 bridging removals against 32 resident flows clears the
	// amortized rebuild bar (removals*4 > flows+64).
	const islands = 32
	topo := islandTopology(islands)
	f := New(topo, simtime.NewEngine(1), DefaultConfig())

	// Bridge every island pair-wise, then stack intra-island load.
	var bridges, locals []*Flow
	for i := 0; i < islands-1; i++ {
		p, err := topo.ShortestPath(
			topology.CompID(fmt.Sprintf("src%d", i)),
			topology.CompID(fmt.Sprintf("dst%d", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		fl := &Flow{Tenant: "a", Path: p, Weight: 1}
		if err := f.AddFlow(fl); err != nil {
			t.Fatal(err)
		}
		bridges = append(bridges, fl)
	}
	for i := 0; i < islands; i++ {
		p, err := topo.ShortestPath(
			topology.CompID(fmt.Sprintf("src%d", i)),
			topology.CompID(fmt.Sprintf("dst%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		fl := &Flow{Tenant: benchTenants[i%len(benchTenants)], Path: p,
			Weight: float64(1 + i%3), Demand: topology.Gbps(float64(10 + i%40))}
		if err := f.AddFlow(fl); err != nil {
			t.Fatal(err)
		}
		locals = append(locals, fl)
	}
	if got := f.SolverStats().Components; got != 1 {
		t.Fatalf("fully bridged fabric has %d components, want 1", got)
	}
	compareWithReference(t, f, "merged")

	// Remove every bridge in one batch: at the single settle that
	// follows, the bridged-removal counter crosses the amortized
	// rebuild threshold, so the partition must split back into
	// singleton islands — with rates still matching the reference
	// across the rebuild. (Unbatched, each removal settles eagerly and
	// the rebuild fires mid-drain, leaving a handful of stale merges
	// below the next threshold — correct, but not the refinement this
	// test pins.)
	f.Batch(func() {
		for _, fl := range bridges {
			f.RemoveFlow(fl)
		}
	})
	compareWithReference(t, f, "post-rebuild")
	if got := f.SolverStats().Components; got != islands {
		t.Fatalf("drained fabric has %d components, want %d", got, islands)
	}
	checkMaxMinInvariants(t, f, locals)
}
