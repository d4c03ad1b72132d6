package fabric

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// FlowID identifies an active flow within a fabric.
type FlowID uint64

// Flow is a unidirectional stream of traffic along a fixed path.
//
// A flow with Size == 0 is persistent: it runs until removed, pushing
// up to Demand bytes/second. A flow with Size > 0 is a sized transfer:
// it completes once Size bytes have been delivered and then invokes
// OnComplete.
type Flow struct {
	ID     FlowID
	Tenant TenantID
	Path   topology.Path
	// Demand is the source's maximum offered rate. Zero means
	// unconstrained (limited only by the fabric).
	Demand topology.Rate
	// Weight sets the flow's share under weighted max-min fairness
	// relative to other flows. Zero is treated as 1.
	Weight float64
	// Size is the transfer length in bytes; zero means persistent.
	Size int64
	// OnComplete fires when a sized transfer finishes. It receives the
	// completion time.
	OnComplete func(simtime.Time)

	// Run-time state, owned by the fabric.
	//
	// rate is only a detach-time snapshot: while the flow is active the
	// authoritative allocation lives in Fabric.slotRate[slot], so the
	// solver's install/detect/settle sweeps never touch the Flow struct.
	rate      topology.Rate
	remaining float64      // bytes left (sized flows)
	mark      simtime.Time // progress accounted up to this instant
	started   simtime.Time
	completed bool
	removed   bool
	// bridged records that installing this flow merged previously
	// separate components; removing such a flow may split the
	// partition (see maybeRebuildPartition).
	bridged bool
	// firstLink anchors the flow to its component.
	firstLink *linkState
	// effW is the flow's cached effective weight (Weight × tenant
	// weight); the authoritative copy for the solver lives in the fill
	// arena at slot, the flow's stable index there (allocated from a
	// free list, fixed for the flow's lifetime). The flow's resolved
	// path lives in Fabric.slotPath[slot] as dense link indices, its
	// tenant accounting slot in Fabric.slotTenant[slot].
	effW   float64
	slot   int32
	doneEv simtime.EventHandle
	fabric *Fabric
}

// Rate returns the flow's currently allocated rate.
func (fl *Flow) Rate() topology.Rate {
	if fl.fabric != nil && !fl.removed {
		fl.fabric.recomputeIfDirty()
		return topology.Rate(fl.fabric.slotRate[fl.slot])
	}
	return fl.rate
}

// Remaining returns the bytes left to transfer for a sized flow.
func (fl *Flow) Remaining() int64 {
	if fl.fabric != nil && !fl.removed {
		fl.fabric.recomputeIfDirty()
		return int64(math.Ceil(fl.projectRemaining(fl.fabric.engine.Now())))
	}
	return int64(math.Ceil(fl.remaining))
}

// Completed reports whether a sized flow has finished.
func (fl *Flow) Completed() bool { return fl.completed }

// Started returns the virtual time at which the flow was added.
func (fl *Flow) Started() simtime.Time { return fl.started }

// AddFlow installs a flow on the fabric and triggers a global rate
// recomputation. The flow's path must be non-empty and reference links
// of this fabric's topology. Flows across failed links are accepted
// but receive zero rate until the link recovers.
func (f *Fabric) AddFlow(fl *Flow) error {
	if fl == nil || fl.fabric != nil {
		return fmt.Errorf("fabric: flow nil or already added")
	}
	if fl.Path.Hops() == 0 {
		return fmt.Errorf("fabric: flow with empty path")
	}
	pls := f.pathScratch[:0]
	for _, l := range fl.Path.Links {
		ls, ok := f.links[l.ID]
		if !ok {
			return fmt.Errorf("fabric: flow path references unknown link %q", l.ID)
		}
		pls = append(pls, ls)
	}
	f.pathScratch = pls
	if fl.Weight < 0 || fl.Demand < 0 || fl.Size < 0 {
		return fmt.Errorf("fabric: negative flow parameter")
	}
	if fl.Weight == 0 {
		fl.Weight = 1
	}
	f.nextID++
	fl.ID = FlowID(f.nextID)
	fl.fabric = f
	fl.started = f.engine.Now()
	fl.mark = fl.started
	fl.remaining = float64(fl.Size)
	fl.firstLink = pls[0]
	tslot := f.tenantSlot(fl.Tenant)
	fl.effW = fl.Weight
	if tw, ok := f.tenantWeight[fl.Tenant]; ok && tw > 0 {
		fl.effW = fl.Weight * tw
	}
	if n := len(f.freeSlots); n > 0 {
		fl.slot = f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
	} else {
		fl.slot = int32(len(f.slotFlow))
		f.slotFlow = append(f.slotFlow, nil)
		f.fill = append(f.fill, fillState{})
		f.slotPath = append(f.slotPath, nil)
		f.slotDemandCi = append(f.slotDemandCi, -1)
		f.slotRate = append(f.slotRate, 0)
		f.slotTenant = append(f.slotTenant, 0)
		f.slotFirst = append(f.slotFirst, -1)
	}
	f.slotFlow[fl.slot] = fl
	// A reused slot's stale epoch is always behind the solver's (the
	// epoch only ever increments), so the new flow starts unfrozen. The
	// slot's recycled path array usually has the capacity already.
	f.fill[fl.slot].effW = fl.effW
	f.slotRate[fl.slot] = 0
	f.slotTenant[fl.slot] = tslot
	f.slotFirst[fl.slot] = int32(pls[0].idx)
	sp := f.slotPath[fl.slot][:0]
	for _, ls := range pls {
		sp = append(sp, int32(ls.idx))
	}
	f.slotPath[fl.slot] = sp
	f.slotDemandCi[fl.slot] = -1
	f.flows[fl.ID] = fl
	// IDs are monotonic, so appending keeps both the fabric-wide and
	// the per-link flow lists ID-ordered. The new flow carries rate 0
	// until the next recompute, so no accounting settle is needed here:
	// its contribution to any pending accrual window is zero.
	f.flowList = append(f.flowList, fl)
	if fl.Size > 0 {
		f.sizedList = append(f.sizedList, fl)
	}
	hasCaps := false
	for _, ls := range pls {
		ls.flows = append(ls.flows, fl)
		ls.memSlots = append(ls.memSlots, fl.slot)
		ls.memberDirty = true
		f.markLinkDirty(ls)
		if len(ls.caps) > 0 {
			hasCaps = true
		}
	}
	f.unionFlowLinks(fl)
	if f.scr.consValid {
		if hasCaps {
			// Installing under a tenant cap changes that cap
			// constraint's member list, which the incremental splice
			// below cannot express.
			f.scr.consValid = false
		} else if fl.Demand > 0 {
			f.demandInsert(fl)
		}
	}
	if f.met != nil {
		f.met.flowsStarted.Inc()
		f.met.flowsActive.Set(float64(len(f.flows)))
		f.traceFlow(obs.KindFlowStart, fl)
	}
	f.markDirty()
	return nil
}

// detachFlow unhooks a flow from the fabric's indexes, settling each
// traversed link's byte accounting first so the flow's contribution up
// to now is accrued at its pre-removal rate.
func (f *Fabric) detachFlow(fl *Flow, now simtime.Time) {
	// Snapshot the final allocation before the slot is recycled so
	// post-removal readers (traces, callbacks) still see it.
	fl.rate = topology.Rate(f.slotRate[fl.slot])
	delete(f.flows, fl.ID)
	if i, ok := slices.BinarySearchFunc(f.flowList, fl.ID,
		func(a *Flow, id FlowID) int { return cmp.Compare(a.ID, id) }); ok {
		copy(f.flowList[i:], f.flowList[i+1:])
		f.flowList[len(f.flowList)-1] = nil
		f.flowList = f.flowList[:len(f.flowList)-1]
	}
	if fl.Size > 0 {
		if i, ok := slices.BinarySearchFunc(f.sizedList, fl.ID,
			func(a *Flow, id FlowID) int { return cmp.Compare(a.ID, id) }); ok {
			copy(f.sizedList[i:], f.sizedList[i+1:])
			f.sizedList[len(f.sizedList)-1] = nil
			f.sizedList = f.sizedList[:len(f.sizedList)-1]
		}
	}
	hasCaps := false
	for _, li := range f.slotPath[fl.slot] {
		ls := f.linkList[li]
		f.settleLink(ls, now)
		ls.removeFlow(fl)
		ls.memberDirty = true
		f.markLinkDirty(ls)
		if len(ls.caps) > 0 {
			hasCaps = true
		}
	}
	if f.scr.consValid {
		if hasCaps {
			f.scr.consValid = false
		} else if fl.Demand > 0 {
			f.demandRemove(fl)
		}
	}
	if fl.bridged {
		f.bridgedRemovals++
	}
	f.slotFlow[fl.slot] = nil
	f.slotFirst[fl.slot] = -1
	f.freeSlots = append(f.freeSlots, fl.slot)
}

// RemoveFlow detaches a flow and recomputes rates. Removing a flow
// twice or removing a completed sized flow is a no-op.
func (f *Fabric) RemoveFlow(fl *Flow) {
	if fl == nil || fl.fabric != f || fl.removed {
		return
	}
	now := f.engine.Now()
	f.settleFlowProgress(now)
	fl.removed = true
	fl.doneEv.Cancel()
	f.detachFlow(fl, now)
	if f.met != nil {
		f.met.flowsRemoved.Inc()
		f.met.flowsActive.Set(float64(len(f.flows)))
		f.traceFlow(obs.KindFlowRemove, fl)
	}
	f.markDirty()
}

// SetDemand updates a flow's offered rate and recomputes sharing.
func (f *Fabric) SetDemand(fl *Flow, demand topology.Rate) error {
	if fl == nil || fl.fabric != f || fl.removed {
		return fmt.Errorf("fabric: flow not active")
	}
	if demand < 0 {
		return fmt.Errorf("fabric: negative demand")
	}
	// A demand constraint exists exactly for flows with Demand > 0, so
	// crossing zero changes the constraint structure; the splice keeps
	// the constraint system valid without a full rebuild. A value change
	// on an existing constraint is written through in place.
	if f.scr.consValid {
		switch {
		case (fl.Demand > 0) != (demand > 0):
			if demand > 0 {
				fl.Demand = demand
				f.demandInsert(fl)
			} else {
				f.demandRemove(fl)
			}
		case demand > 0:
			f.scr.cons[f.slotDemandCi[fl.slot]].capacity = float64(demand)
		}
	}
	fl.Demand = demand
	f.markLinkDirty(fl.firstLink)
	f.markDirty()
	return nil
}

// Flows returns the number of active flows.
func (f *Fabric) Flows() int { return len(f.flows) }

// markDirty flags rates stale and recomputes unless a recomputation is
// already on the stack or a batch is open.
func (f *Fabric) markDirty() {
	f.dirty = true
	f.sc.mutations++
	if f.batching {
		f.sc.batchedMutations++
		if f.met != nil {
			f.met.solverBatchedOps.Inc()
		}
		return
	}
	f.recomputeIfDirty()
}

// Batch groups many mutations (cap updates, flow arrivals) into one
// rate recomputation: fn runs with recomputation deferred, and the
// fabric settles once at the end. Reads inside fn observe the
// consistent pre-batch state — which is exactly what a
// measure-then-set control loop like the arbiter wants. Virtual time
// cannot advance inside fn (the simulation is single-threaded), so no
// accounting or completion scheduling is lost. Nested batches flatten.
func (f *Fabric) Batch(fn func()) {
	if f.batching {
		fn()
		return
	}
	f.sc.batches++
	if f.met != nil {
		f.met.solverBatches.Inc()
	}
	f.batching = true
	fn()
	f.batching = false
	f.recomputeIfDirty()
}

// recomputeIfDirty settles sized-flow progress, recomputes max-min
// rates (settling byte accounting on every link whose allocation is
// about to change), fires any completions that settling revealed, and
// re-arms completion events. Completions can cascade (OnComplete may
// add or remove flows); the loop runs until the state is clean.
// Re-entrant calls (from callbacks) return immediately; the outermost
// invocation finishes the job.
func (f *Fabric) recomputeIfDirty() {
	if f.inRecompute || f.batching {
		return
	}
	f.inRecompute = true
	defer func() { f.inRecompute = false }()
	for f.dirty {
		f.dirty = false
		f.settleFlowProgress(f.engine.Now())
		f.observedComputeRates()
		f.fireCompletions()
		if f.dirty {
			continue
		}
		f.armCompletions()
	}
}

// projectLinkBytes returns the link's byte counters brought up to now
// WITHOUT folding the partial segment into the accumulators. Readers
// (stats, telemetry, state export) must not write: float addition is
// not associative, so folding at read instants would make the
// accumulators — and the state hash derived from them — depend on when
// the state was observed, not just on the command journal. Folding
// happens only at rate-change boundaries (recompute, flow add/remove),
// which are journal- and engine-driven.
func (f *Fabric) projectLinkBytes(ls *linkState, now simtime.Time) (float64, map[TenantID]float64) {
	tb := make(map[TenantID]float64, len(ls.tenantBytes))
	for slot, b := range ls.tenantBytes {
		if b != 0 {
			tb[f.tenantList[slot]] = b
		}
	}
	total := ls.totalBytes
	if dt := now.Sub(ls.lastUpdate).Seconds(); dt > 0 {
		for _, sl := range ls.memSlots {
			b := f.slotRate[sl] * dt
			total += b
			tb[f.tenantList[f.slotTenant[sl]]] += b
		}
	}
	return total, tb
}

// projectRemaining returns a sized flow's remaining bytes at now
// without persisting the progress mark (see projectLinkBytes for why
// reads must not write).
func (fl *Flow) projectRemaining(now simtime.Time) float64 {
	rem := fl.remaining
	if fl.Size > 0 && !fl.completed {
		if dt := now.Sub(fl.mark).Seconds(); dt > 0 {
			rem -= fl.fabric.slotRate[fl.slot] * dt
			if rem < 1 {
				rem = 0
			}
		}
	}
	return rem
}

// settleLink accrues the link's per-link and per-tenant byte counts at
// current rates since its last update. Flows are accumulated in ID
// order, never map order: float addition is not associative, so an
// unordered sum would leave ULP-level differences between two
// otherwise identical runs — exactly the kind of silent nondeterminism
// the snap divergence checker exists to catch.
func (f *Fabric) settleLink(ls *linkState, now simtime.Time) {
	dt := now.Sub(ls.lastUpdate).Seconds()
	if dt > 0 {
		for _, sl := range ls.memSlots {
			tslot := f.slotTenant[sl]
			if int(tslot) >= len(ls.tenantBytes) {
				ls.tenantBytes = append(ls.tenantBytes,
					make([]float64, int(tslot)+1-len(ls.tenantBytes))...)
			}
			b := f.slotRate[sl] * dt
			ls.totalBytes += b
			ls.tenantBytes[tslot] += b
		}
	}
	ls.lastUpdate = now
}

// settleFlowProgress advances every sized flow's remaining-byte count
// at its current rate since its last mark. Only sized flows carry
// progress state, so the walk is over sizedList, not the full flow
// population. Per-flow updates are independent, so ID-order iteration
// here is for cache locality, not determinism.
func (f *Fabric) settleFlowProgress(now simtime.Time) {
	for _, fl := range f.sizedList {
		if !fl.completed {
			dt := now.Sub(fl.mark).Seconds()
			if dt > 0 {
				fl.remaining -= f.slotRate[fl.slot] * dt
				if fl.remaining < 1 {
					fl.remaining = 0
				}
			}
		}
		fl.mark = now
	}
}

// fireCompletions completes every sized flow whose remaining bytes
// reached zero. Completion removes the flow and invokes OnComplete,
// which may mutate the flow set (dirty handling is in the caller).
// sizedList is ID-ordered, so completions fire in deterministic ID
// order by construction.
func (f *Fabric) fireCompletions() {
	done := f.doneScratch[:0]
	for _, fl := range f.sizedList {
		if !fl.completed && fl.remaining <= 0 {
			done = append(done, fl)
		}
	}
	now := f.engine.Now()
	for _, fl := range done {
		fl.completed = true
		fl.removed = true
		fl.doneEv.Cancel()
		f.detachFlow(fl, now)
		if f.met != nil {
			f.met.flowsCompleted.Inc()
			f.met.flowsActive.Set(float64(len(f.flows)))
			f.traceFlow(obs.KindFlowDone, fl)
		}
		f.dirty = true
		if fl.OnComplete != nil {
			fl.OnComplete(now)
		}
	}
	for i := range done {
		done[i] = nil // release for GC; the scratch slice is long-lived
	}
	f.doneScratch = done[:0]
}

// armCompletions (re)schedules the completion event of every active
// sized flow according to its current rate. Flows are visited in ID
// order: each (re)arm consumes an engine sequence number, and sequence
// numbers decide execution order between same-instant events, so the
// visit order is part of the simulation's deterministic state. The
// event object itself is reused across re-arms (Engine.Reschedule), so
// the steady state allocates nothing.
func (f *Fabric) armCompletions() {
	for _, fl := range f.sizedList {
		if fl.completed {
			continue
		}
		r := topology.Rate(f.slotRate[fl.slot])
		if r <= 0 {
			fl.doneEv.Cancel()
			continue // stalled; re-armed by the next recompute
		}
		eta := r.TimeToSend(int64(math.Ceil(fl.remaining)))
		if eta < 1 {
			eta = 1
		}
		fl.doneEv = f.engine.Reschedule(fl.doneEv, f.engine.Now().Add(eta), f.completionFn)
	}
}
