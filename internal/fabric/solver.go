package fabric

// This file holds the component partition behind the dirty-region
// max-min solver (see maxmin.go for the filling algorithm itself).
//
// The constraint graph decomposes into independent connected
// components: two links are connected when some flow traverses both,
// and every constraint (link capacity, per-(link,tenant) cap, per-flow
// demand) involves the flows of exactly one component. Progressive
// filling over the whole system is therefore bit-identical to filling
// each component on its own: a constraint's share depends only on its
// own component's state, and the global "tightest first" order merely
// interleaves the per-component bottleneck sequences without changing
// any float operation or its operand order. That identity is what
// makes dirty-region solving sound: only components touched by a
// mutation since the last pass are re-solved, and every other flow
// keeps its rate, which is exactly the rate a full solve would
// re-derive.
//
// The partition is a union-find over dense link indices, maintained
// incrementally: installing a flow unions the links of its path.
// Removals never split eagerly — a too-coarse partition is still
// correct, merely less dirty-precise — and a full rebuild runs
// amortized once enough component-bridging flows have been removed.

// find returns the root of the component containing link index i,
// compressing the path.
func (f *Fabric) find(i int32) int32 {
	root := i
	for f.ufParent[root] != root {
		root = f.ufParent[root]
	}
	for f.ufParent[i] != root {
		f.ufParent[i], i = root, f.ufParent[i]
	}
	return root
}

// union merges the components of link indices a and b (by size),
// reporting whether two distinct components were actually joined.
func (f *Fabric) union(a, b int32) bool {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return false
	}
	if f.ufSize[ra] < f.ufSize[rb] {
		ra, rb = rb, ra
	}
	f.ufParent[rb] = ra
	f.ufSize[ra] += f.ufSize[rb]
	return true
}

// resetPartition returns every link to its own singleton component.
func (f *Fabric) resetPartition() {
	for i := range f.ufParent {
		f.ufParent[i] = int32(i)
		f.ufSize[i] = 1
	}
}

// unionFlowLinks merges the components of every link on fl's path,
// recording on the flow whether it bridged previously separate
// components. Bridging flows are the only ones whose removal can
// split the partition, so they gate the amortized rebuild.
func (f *Fabric) unionFlowLinks(fl *Flow) {
	path := f.slotPath[fl.slot]
	first := path[0]
	for _, li := range path[1:] {
		if f.union(first, li) {
			fl.bridged = true
		}
	}
}

// maybeRebuildPartition rebuilds the union-find from the live flow set
// once enough bridging flows have been removed that the partition may
// have become needlessly coarse. Rebuilding never changes rates — it
// only refines which flows a pass may skip — and the per-link dirty
// marks survive untouched.
func (f *Fabric) maybeRebuildPartition() {
	if f.bridgedRemovals*4 <= len(f.flows)+64 {
		return
	}
	f.bridgedRemovals = 0
	f.resetPartition()
	for _, fl := range f.flowList {
		fl.bridged = false
		f.unionFlowLinks(fl)
	}
}

// markLinkDirty records that a link's constraints (membership,
// capacity, or cap set) changed, so its component must be re-solved on
// the next pass. Marks accumulate across batched mutations and are
// consumed by computeRates. It leaves the link's cached hop latency
// alone: membership, demand and cap changes reach latency only through
// currentRate, which computeRates checks, and the failure paths that
// move capacity, extraLatency or failed call latencyMoved themselves.
func (f *Fabric) markLinkDirty(ls *linkState) {
	f.linkDirty[ls.idx] = true
}

// markAllLinksDirty forces a full re-solve (global knobs: tenant
// weights, clearing every cap).
func (f *Fabric) markAllLinksDirty() {
	for i := range f.linkDirty {
		f.linkDirty[i] = true
	}
}

// compSolve is one dirty component's solve state for the current pass.
// active and touched alias segments of the scratch arenas; the filling
// loop compacts active in place.
type compSolve struct {
	nCons       int // constraints assigned in pass A
	links       int // link constraints assigned: bounds the touched list
	frozenCount int // flows this solve froze
	rounds      uint64
	active      []int32
	touched     []int32 // links marked roundDirty by this round's freeze
}

// liveComponents counts connected components with at least one active
// flow, in O(links).
func (f *Fabric) liveComponents() int {
	s := &f.scr
	s.compSeen = growBools(s.compSeen, len(f.linkList))
	for i := range s.compSeen {
		s.compSeen[i] = false
	}
	n := 0
	for _, ls := range f.linkList {
		if len(ls.flows) == 0 {
			continue
		}
		if r := f.find(int32(ls.idx)); !s.compSeen[r] {
			s.compSeen[r] = true
			n++
		}
	}
	return n
}

// SolverStats is an operator snapshot of the component solver: the
// live partition shape, cumulative dirty-region accounting, and the batch coalescing counters behind the "one settle
// per burst" contract. The cheap counters are maintained on the solve
// path; the partition shape is computed on demand.
type SolverStats struct {
	// Components is the number of connected components with at least
	// one active flow; LargestComponent is the flow count of the
	// biggest one. Flows is the total active flow count.
	Components       int `json:"components"`
	LargestComponent int `json:"largest_component_flows"`
	Flows            int `json:"flows"`
	// Solves counts rate recomputations that had a dirty region;
	// NoopSolves counts passes that found nothing dirty and returned
	// immediately.
	Solves     uint64 `json:"solves"`
	NoopSolves uint64 `json:"noop_solves"`
	// ComponentsSolved and FlowsSolved accumulate the dirty region
	// actually re-solved; FlowsSkipped accumulates flows whose clean
	// components were left untouched. Rounds accumulates
	// progressive-filling rounds across all solves.
	ComponentsSolved uint64 `json:"components_solved"`
	FlowsSolved      uint64 `json:"flows_solved"`
	FlowsSkipped     uint64 `json:"flows_skipped"`
	Rounds           uint64 `json:"rounds"`
	// Mutations counts rate-affecting fabric mutations; Mutations over
	// Solves is the batch coalesce factor. BatchedMutations counts the
	// subset that arrived inside an open Batch; Batches counts the
	// batches.
	Mutations        uint64 `json:"mutations"`
	Batches          uint64 `json:"batches"`
	BatchedMutations uint64 `json:"batched_mutations"`
}

// solverCounters is the cumulative half of SolverStats, embedded in
// the fabric and bumped with plain adds on the solve path.
type solverCounters struct {
	solves           uint64
	noopSolves       uint64
	componentsSolved uint64
	flowsSolved      uint64
	flowsSkipped     uint64
	rounds           uint64
	mutations        uint64
	batches          uint64
	batchedMutations uint64
}

// SolverStats returns the solver snapshot. The partition shape costs
// O(links + flows); everything else reads counters maintained on the
// solve path.
func (f *Fabric) SolverStats() SolverStats {
	st := SolverStats{
		Components:       f.liveComponents(),
		Flows:            len(f.flows),
		Solves:           f.sc.solves,
		NoopSolves:       f.sc.noopSolves,
		ComponentsSolved: f.sc.componentsSolved,
		FlowsSolved:      f.sc.flowsSolved,
		FlowsSkipped:     f.sc.flowsSkipped,
		Rounds:           f.sc.rounds,
		Mutations:        f.sc.mutations,
		Batches:          f.sc.batches,
		BatchedMutations: f.sc.batchedMutations,
	}
	// Size the largest component by attributing each flow to its first
	// link's root.
	counts := make(map[int32]int)
	for _, fl := range f.flowList {
		counts[f.find(int32(fl.firstLink.idx))]++
	}
	for _, n := range counts {
		if n > st.LargestComponent {
			st.LargestComponent = n
		}
	}
	return st
}
