package fabric

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/topology"
)

// constraintKind classifies a max-min constraint.
type constraintKind uint8

const (
	// consLink caps the sum of all flows crossing one directed link at
	// its effective capacity.
	consLink constraintKind = iota
	// consTenantCap caps one tenant's flows on one link at the rate the
	// arbiter installed.
	consTenantCap
	// consDemand caps a single flow at its own offered rate.
	consDemand
)

func (k constraintKind) String() string {
	switch k {
	case consLink:
		return "link"
	case consTenantCap:
		return "cap"
	case consDemand:
		return "demand"
	}
	return "unknown"
}

// constraintKey is the typed identity of one constraint — what used to
// be a string-concatenation hack. Only the fields relevant to Kind are
// set: Link for consLink, Link+Tenant for consTenantCap, Flow for
// consDemand.
type constraintKey struct {
	Kind   constraintKind
	Link   topology.LinkID
	Tenant TenantID
	Flow   FlowID
}

// constraint is one capacity constraint of the progressive-filling
// system. Member flows are not stored per constraint: link constraints
// borrow the link's ID-ordered member-slot slice, tenant-cap
// constraints slice the solver's shared member-slot arena, and demand
// constraints bind a single flow. That keeps the constraint system
// reconstruction allocation-free in the steady state.
type constraint struct {
	kind     constraintKind
	capacity float64
	ls       *linkState // consLink, consTenantCap
	tenant   TenantID   // consTenantCap
	off, n   int        // consTenantCap: scratch.memberSlots[off : off+n]
	fl       *Flow      // consDemand
	// linkIdx anchors the constraint to a component: its own link for
	// link and cap constraints, the flow's first path link for demand
	// constraints (every link of a path shares one component). flSlot
	// is the demand constraint's member fill slot. Both are denormalized
	// here so the per-pass constraint walks stay pointer-chase-free.
	linkIdx int32
	flSlot  int32
}

// fillState is one flow's solver state in the dense fill arena,
// indexed by the flow's stable slot. The flow is frozen in the current
// solve iff epoch matches the solver's fillEpoch; alloc is its frozen
// allocation; effW mirrors Flow.effW. One 24-byte entry per flow keeps
// a filling round's working set dense and Flow-struct-free.
type fillState struct {
	epoch uint64
	alloc float64
	effW  float64
}

// key returns the constraint's typed identity, for tests and debugging.
func (c *constraint) key() constraintKey {
	k := constraintKey{Kind: c.kind}
	switch c.kind {
	case consLink:
		k.Link = c.ls.link.ID
	case consTenantCap:
		k.Link = c.ls.link.ID
		k.Tenant = c.tenant
	case consDemand:
		k.Flow = c.fl.ID
	}
	return k
}

// maxminScratch holds the solver's reusable buffers. Per-flow arrays
// are indexed by the flow's arena slot (Flow.slot, stable for the
// flow's lifetime), per-link arrays by the dense link index
// (linkState.idx), per-constraint arrays by the constraint's
// position in cons. A recompute in the steady state touches no
// allocator at all.
type maxminScratch struct {
	// cons is the constraint system, laid out [link & cap section]
	// [demand section, flow-ID-ordered] with demandOff the boundary.
	// A full rebuild happens only when consValid is false (cap key-set
	// changes, or membership changes on a capped link); flow arrivals
	// and departures splice the demand section incrementally, and
	// capacities of dirty components are refreshed in place per pass.
	cons      []constraint
	consValid bool
	demandOff int
	// memberSlots is the arena of flow fill slots backing tenant-cap
	// constraint membership.
	memberSlots []int32

	// Per-constraint filling state. A constraint's share depends only
	// on its capacity and its members' frozen/alloc state, so a cached
	// share stays exact until one of its members freezes; conDirty
	// tracks exactly that, letting each filling round rescan only the
	// constraints the previous round's freeze actually touched.
	conDirty []bool
	conShare []float64
	// roundDirty marks, by dense link index, the links some member of
	// which froze in the current filling round. Every constraint
	// containing a flow is anchored at one of the flow's path links
	// (link and cap constraints at their own link, the demand constraint
	// at the flow's first link), so one per-link flag invalidates all of
	// them at once; the next round's scan checks it via the constraint's
	// linkIdx. Each component clears the flags it set (its touched list,
	// carved from touchedArena) right after the scan that consumes them,
	// so the array is all-false between rounds and between passes.
	roundDirty   []bool
	touchedArena []int32
	// conLink mirrors cons[i].linkIdx for link and cap constraints and
	// is -1 for demand constraints (those are invalidated directly via
	// slotDemandCi, never by link flag — a freeze elsewhere on the link
	// cannot change a demand constraint's share). Kept as a dense side
	// array so a clean constraint's scan check never loads the 72-byte
	// constraint struct. The demand tail is uniformly -1, so the
	// demand-section splices only grow or shrink it.
	conLink []int32

	// Per-link solve state: each link's component root this pass, which
	// roots are dirty, and each dirty root's slot in comps.
	linkRoot  []int32
	rootDirty []bool
	rootSlot  []int32
	compSeen  []bool

	// fillEpoch identifies the current solve; a flow whose fillEpoch
	// matches is frozen (see Flow.fillEpoch). Incrementing it at the
	// start of a pass unfreezes the whole dirty region without a reset
	// sweep.
	fillEpoch uint64

	// comps are the dirty components of the current pass; dirtyList
	// indexes their constraints, and activeArena backs the
	// per-component active lists.
	comps       []compSolve
	dirtyList   []int32
	activeArena []int32

	// tenants is reused when ordering a link's cap key-set.
	tenants []TenantID
	// changed collects the links whose allocation moved this pass.
	changed []*linkState
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// computeRates allocates a rate to every active flow under weighted
// max-min fairness by progressive filling.
//
// Constraints considered, in deterministic order:
//   - every link's effective capacity, shared by all flows crossing it;
//   - every per-(link,tenant) cap installed by the arbiter, shared by
//     that tenant's flows on that link;
//   - every flow's own demand.
//
// The algorithm repeatedly finds the tightest constraint — the one
// whose remaining capacity divided by the total effective weight of
// its still-unfrozen member flows is smallest — and freezes those
// members at their weighted fair share. Effective weight is the flow's
// Weight times its tenant's global weight.
//
// Two exact optimizations keep this off the O(flows × rounds) cliff
// (see solver.go for the partition machinery and the soundness
// argument):
//   - only dirty components are re-solved; every other flow keeps its
//     rate, which is bit-identical to what a full solve would assign;
//   - within a round, only constraints whose member set changed since
//     their last scan are rescanned; clean constraints reuse their
//     cached share, which is the exact float a rescan would produce.
//
// The iteration order of every loop here is part of the simulation's
// deterministic contract: float accumulation is not associative, so
// constraint order and member order must be fixed (link ID, tenant ID,
// flow ID) or two identical runs would drift apart at ULP scale.
func (f *Fabric) computeRates() {
	now := f.engine.Now()
	s := &f.scr
	nLinks := len(f.linkList)

	f.maybeRebuildPartition()

	// Resolve each link's component root and fold the per-link dirty
	// marks accumulated since the last pass into per-root dirty flags.
	s.linkRoot = growInt32s(s.linkRoot, nLinks)
	s.rootDirty = growBools(s.rootDirty, nLinks)
	anyDirty := false
	for i := 0; i < nLinks; i++ {
		s.rootDirty[i] = false
	}
	for i := 0; i < nLinks; i++ {
		r := f.find(int32(i))
		s.linkRoot[i] = r
		if f.linkDirty[i] {
			f.linkDirty[i] = false
			s.rootDirty[r] = true
			anyDirty = true
		}
	}
	// Nothing changed since the last pass: every rate is already the
	// fixed point. (Completion events mark the fabric dirty before the
	// completed flow detaches; that first drain iteration lands here.)
	if !anyDirty && s.consValid {
		f.sc.noopSolves++
		return
	}
	f.sc.solves++
	if !s.consValid {
		f.rebuildConstraints()
	}

	// Pass A: walk the constraint system once, assigning every
	// constraint of a dirty component to that component's solve slot,
	// refreshing its capacity in place (degradation, failure, cap and
	// demand values move without structural change), and marking it for
	// a first-round scan.
	nCons := len(s.cons)
	s.conDirty = growBools(s.conDirty, nCons)
	s.conShare = growFloats(s.conShare, nCons)
	s.rootSlot = growInt32s(s.rootSlot, nLinks)
	for i := 0; i < nLinks; i++ {
		s.rootSlot[i] = -1
	}
	s.comps = s.comps[:0]
	s.dirtyList = s.dirtyList[:0]
	for ci := 0; ci < nCons; ci++ {
		c := &s.cons[ci]
		root := s.linkRoot[c.linkIdx]
		if !s.rootDirty[root] {
			continue
		}
		slot := s.rootSlot[root]
		if slot < 0 {
			slot = int32(len(s.comps))
			s.rootSlot[root] = slot
			s.comps = append(s.comps, compSolve{})
		}
		comp := &s.comps[slot]
		switch c.kind {
		case consLink:
			if c.ls.failed {
				c.capacity = 0
			} else {
				c.capacity = float64(c.ls.capacity)
			}
			comp.links++
		case consTenantCap:
			c.capacity = float64(c.ls.caps[c.tenant])
		case consDemand:
			// Demand capacities are written through at mutation time
			// (SetDemand, splice, rebuild); nothing to refresh.
		}
		s.conDirty[ci] = true
		comp.nCons++
		s.dirtyList = append(s.dirtyList, int32(ci))
	}

	// Pass B: carve each component's active list out of the shared
	// arenas. dirtyList is in constraint order, so every component's
	// active list is the global scan order restricted to it — which is
	// what makes the per-component solve bit-identical to a full one.
	s.activeArena = growInt32s(s.activeArena, len(s.dirtyList))
	s.roundDirty = growBools(s.roundDirty, nLinks)
	s.touchedArena = growInt32s(s.touchedArena, nLinks)
	off := 0
	tOff := 0
	for i := range s.comps {
		comp := &s.comps[i]
		comp.active = s.activeArena[off : off : off+comp.nCons]
		off += comp.nCons
		comp.touched = s.touchedArena[tOff : tOff : tOff+comp.links]
		tOff += comp.links
	}
	for _, ci := range s.dirtyList {
		c := &s.cons[ci]
		comp := &s.comps[s.rootSlot[s.linkRoot[c.linkIdx]]]
		comp.active = append(comp.active, ci)
	}

	// A new epoch unfreezes every flow; no reset sweep is needed.
	s.fillEpoch++
	n := len(f.flowList)

	f.sc.componentsSolved += uint64(len(s.comps))
	var solved, rounds uint64
	for i := range s.comps {
		f.fillComponent(&s.comps[i])
		solved += uint64(s.comps[i].frozenCount)
		rounds += s.comps[i].rounds
	}
	f.sc.flowsSolved += solved
	f.sc.flowsSkipped += uint64(n) - solved
	f.sc.rounds += rounds

	// Settle byte accounting on every dirty-region link whose
	// allocation is about to move (at the old rates, up to now), then
	// install the new rates on the dirty region and resum the affected
	// links' current rate in flow-ID order. Links of clean components
	// are untouched: none of their members' rates moved.
	s.changed = s.changed[:0]
	for _, ls := range f.linkList {
		if !s.rootDirty[s.linkRoot[ls.idx]] {
			continue
		}
		changed := ls.memberDirty
		if !changed {
			for _, sl := range ls.memSlots {
				if f.slotRate[sl] != f.fill[sl].alloc {
					changed = true
					break
				}
			}
		}
		if changed {
			f.settleLink(ls, now)
			s.changed = append(s.changed, ls)
		}
	}
	// Install: one linear sweep over the slot arena writes each dirty
	// flow's rate exactly once. A flow is in the dirty region iff its
	// first link's root is dirty (every link of a path shares one
	// component), so the per-slot check needs no Flow deref — and the
	// sweep touches each flow once where a walk of the dirty link
	// constraints would touch it once per path hop.
	for sl, li := range f.slotFirst {
		if li >= 0 && s.rootDirty[s.linkRoot[li]] {
			f.slotRate[sl] = f.fill[sl].alloc
		}
	}
	for i, ls := range s.changed {
		var sum float64
		for _, sl := range ls.memSlots {
			sum += f.slotRate[sl]
		}
		if r := topology.Rate(sum); r != ls.currentRate {
			ls.currentRate = r
			ls.hopValid = false
		}
		ls.memberDirty = false
		s.changed[i] = nil // release for GC; the scratch slice is long-lived
	}
	s.changed = s.changed[:0]
}

// fillComponent runs progressive filling over one component's active
// constraint list: find the tightest constraint, freeze its members at
// their fair share, repeat until every constraint is spent. Spent
// constraints are compacted out of the active list — freezing is
// monotone, so a spent constraint can never become the bottleneck
// again.
func (f *Fabric) fillComponent(cs *compSolve) {
	for {
		cs.rounds++
		keep, bestShare, bestCi := f.scan(cs.active)
		f.clearTouched(cs)
		cs.active = cs.active[:keep]
		if bestCi < 0 {
			return
		}
		f.freezeBest(cs, bestCi, bestShare)
	}
}

// clearTouched resets the roundDirty flags a freeze set, once the scan
// that needed them has run. Keeping the array all-false between rounds
// is what lets it be shared scratch across passes and components.
func (f *Fabric) clearTouched(cs *compSolve) {
	s := &f.scr
	for _, li := range cs.touched {
		s.roundDirty[li] = false
	}
	cs.touched = cs.touched[:0]
}

// scan runs one filling round's scan over a component's active list,
// compacting spent constraints out in place and returning the number
// of survivors plus the round's tightest constraint (the first with
// the smallest share, in constraint order). Dirty constraints are
// rescanned member by member in flow order — remaining capacity minus
// frozen allocations, accumulated weight of unfrozen members — and
// their share re-cached; clean constraints reuse the cached share,
// which is exact because no member of theirs froze since it was
// computed.
func (f *Fabric) scan(active []int32) (int, float64, int32) {
	s := &f.scr
	ep := s.fillEpoch
	fill := f.fill
	bestShare := math.Inf(1)
	bestCi := int32(-1)
	w := 0
	for _, ci := range active {
		if li := s.conLink[ci]; s.conDirty[ci] || (li >= 0 && s.roundDirty[li]) {
			s.conDirty[ci] = false
			c := &s.cons[ci]
			remaining := c.capacity
			aw := 0.0
			switch c.kind {
			case consLink:
				for _, sl := range c.ls.memSlots {
					fs := &fill[sl]
					if fs.epoch == ep {
						remaining -= fs.alloc
					} else {
						aw += fs.effW
					}
				}
			case consTenantCap:
				for _, sl := range s.memberSlots[c.off : c.off+c.n] {
					fs := &fill[sl]
					if fs.epoch == ep {
						remaining -= fs.alloc
					} else {
						aw += fs.effW
					}
				}
			case consDemand:
				if fs := &fill[c.flSlot]; fs.epoch != ep {
					aw = fs.effW
				}
			}
			if aw == 0 {
				continue // spent: drop from the active list
			}
			share := remaining / aw
			if share < 0 {
				share = 0
			}
			s.conShare[ci] = share
		}
		active[w] = ci
		w++
		if sh := s.conShare[ci]; sh < bestShare {
			bestShare = sh
			bestCi = ci
		}
	}
	return w, bestShare, bestCi
}

// freezeBest freezes every unfrozen member of the round's tightest
// constraint at its weighted share of the bottleneck.
func (f *Fabric) freezeBest(cs *compSolve, bestCi int32, share float64) {
	s := &f.scr
	c := &s.cons[bestCi]
	switch c.kind {
	case consLink:
		for _, sl := range c.ls.memSlots {
			f.freezeSlot(cs, sl, share)
		}
	case consTenantCap:
		for _, sl := range s.memberSlots[c.off : c.off+c.n] {
			f.freezeSlot(cs, sl, share)
		}
	case consDemand:
		f.freezeSlot(cs, c.flSlot, share)
	}
}

// freezeSlot freezes one flow (by fill slot) at share × effW and
// marks the flow's path links round-dirty: every constraint the flow
// participates in is anchored at one of those links, lost an unfrozen
// member, and must be rescanned next round (see roundDirty).
func (f *Fabric) freezeSlot(cs *compSolve, slot int32, share float64) {
	s := &f.scr
	fs := &f.fill[slot]
	if fs.epoch == s.fillEpoch {
		return
	}
	fs.epoch = s.fillEpoch
	fs.alloc = share * fs.effW
	cs.frozenCount++
	for _, li := range f.slotPath[slot] {
		if !s.roundDirty[li] {
			s.roundDirty[li] = true
			cs.touched = append(cs.touched, li)
		}
	}
	if dc := f.slotDemandCi[slot]; dc >= 0 {
		s.conDirty[dc] = true
	}
}

// rebuildConstraints reconstructs the constraint system from scratch:
// per link (in ID order) the link-capacity constraint followed by its
// tenant-cap constraints (in tenant order), then per flow (in ID
// order) its demand constraint. Every link gets a constraint even when
// it currently has no flows — an empty constraint is inert (no active
// weight, dropped on first scan) but its presence means flow arrivals
// and departures on uncapped links never invalidate the system; they
// splice the demand section instead (see demandInsert/demandRemove).
// Buffers are reused; after warm-up a rebuild allocates nothing.
func (f *Fabric) rebuildConstraints() {
	s := &f.scr
	s.cons = s.cons[:0]
	s.conLink = s.conLink[:0]
	s.memberSlots = s.memberSlots[:0]
	for _, ls := range f.linkList {
		li := ls.idx
		s.cons = append(s.cons, constraint{kind: consLink, ls: ls, linkIdx: int32(li)})
		s.conLink = append(s.conLink, int32(li))
		if len(ls.caps) == 0 {
			continue
		}
		s.tenants = s.tenants[:0]
		for t := range ls.caps {
			s.tenants = append(s.tenants, t)
		}
		sortTenants(s.tenants)
		for _, t := range s.tenants {
			off := len(s.memberSlots)
			for _, fl := range ls.flows {
				if fl.Tenant == t {
					s.memberSlots = append(s.memberSlots, fl.slot)
				}
			}
			if nm := len(s.memberSlots) - off; nm > 0 {
				s.cons = append(s.cons, constraint{
					kind: consTenantCap, ls: ls, tenant: t,
					off: off, n: nm, linkIdx: int32(li),
				})
				s.conLink = append(s.conLink, int32(li))
			}
		}
	}
	s.demandOff = len(s.cons)
	for _, fl := range f.flowList {
		f.slotDemandCi[fl.slot] = -1
		if fl.Demand > 0 {
			f.slotDemandCi[fl.slot] = int32(len(s.cons))
			s.cons = append(s.cons, constraint{
				kind: consDemand, fl: fl, capacity: float64(fl.Demand),
				linkIdx: int32(fl.firstLink.idx), flSlot: fl.slot,
			})
			s.conLink = append(s.conLink, -1)
		}
	}
	s.consValid = true
}

// demandInsert splices a demand constraint for fl into the
// flow-ID-ordered demand section, keeping every shifted flow's cached
// constraint index in step. Valid only while consValid holds.
func (f *Fabric) demandInsert(fl *Flow) {
	s := &f.scr
	i, _ := slices.BinarySearchFunc(s.cons[s.demandOff:], fl.ID,
		func(c constraint, id FlowID) int { return cmp.Compare(c.fl.ID, id) })
	i += s.demandOff
	s.cons = append(s.cons, constraint{})
	s.conLink = append(s.conLink, -1) // the demand tail is uniformly -1
	copy(s.cons[i+1:], s.cons[i:])
	s.cons[i] = constraint{
		kind: consDemand, fl: fl, capacity: float64(fl.Demand),
		linkIdx: int32(fl.firstLink.idx), flSlot: fl.slot,
	}
	for j := i; j < len(s.cons); j++ {
		f.slotDemandCi[s.cons[j].flSlot] = int32(j)
	}
}

// demandRemove splices fl's demand constraint out of the demand
// section. A no-op for flows without one.
func (f *Fabric) demandRemove(fl *Flow) {
	s := &f.scr
	i := int(f.slotDemandCi[fl.slot])
	if i < 0 {
		return
	}
	copy(s.cons[i:], s.cons[i+1:])
	s.cons[len(s.cons)-1] = constraint{}
	s.cons = s.cons[:len(s.cons)-1]
	s.conLink = s.conLink[:len(s.conLink)-1]
	f.slotDemandCi[fl.slot] = -1
	for j := i; j < len(s.cons); j++ {
		f.slotDemandCi[s.cons[j].flSlot] = int32(j)
	}
}

// sortTenants orders a small tenant slice in place (insertion sort: the
// cap key-set of one link is tiny, and this avoids the closure
// allocation of sort.Slice on the recompute path).
func sortTenants(ts []TenantID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
