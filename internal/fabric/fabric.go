// Package fabric is a flow-level discrete-event simulator of an
// intra-host network. It models contention, congestion and latency on
// the topology graph: concurrent flows share link capacity under
// weighted max-min fairness, subject to per-(link,tenant) rate caps
// installed by the resource arbiter; transaction latency inflates with
// link utilization; links can fail outright or degrade silently.
//
// The fabric is the ground truth that the manageability stack (monitor,
// anomaly detector, diagnostics, arbiter) observes and controls — it
// stands in for the real PCIe/UPI/memory-bus hardware that the paper's
// vision would instrument.
package fabric

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// TenantID identifies a tenant (VM, container, or application) for
// accounting and resource arbitration. The empty TenantID is the
// "system" tenant used by infrastructure traffic such as heartbeats.
type TenantID string

// SystemTenant is the tenant of infrastructure-originated traffic.
const SystemTenant TenantID = "_system"

// Config tunes the fabric's behavioural models.
type Config struct {
	// QueueingFactor scales utilization-driven latency inflation:
	// per-hop latency = base * (1 + QueueingFactor * rho/(1-rho)),
	// where rho is the link's utilization. Zero disables queueing
	// latency (ablation for E2).
	QueueingFactor float64
	// MaxInflation caps the per-hop inflation multiplier so latency
	// stays finite as rho -> 1.
	MaxInflation float64
	// PCIeEfficiency derates PCIe link capacity for TLP/DLLP protocol
	// overhead. 1.0 means raw capacity. Typically ~0.85-0.9 for 256 B
	// max payload (Neugebauer et al., SIGCOMM 2018).
	PCIeEfficiency float64
	// IOMMULatency is the address-translation cost added to
	// device-initiated traffic entering a root port whose IOMMU is
	// configured to "translate" (Figure 1's "Translation Services"
	// knob). The lookup is dynamic: flipping the component config
	// changes latency live, which is exactly the kind of silent
	// reconfiguration the monitor's drift detector exists to catch.
	IOMMULatency simtime.Duration
}

// DefaultConfig returns the configuration used across experiments:
// moderate queueing sensitivity and PCIe 4.0 protocol efficiency at a
// 256-byte maximum payload.
func DefaultConfig() Config {
	return Config{
		QueueingFactor: 0.35,
		MaxInflation:   40,
		PCIeEfficiency: 0.87,
		IOMMULatency:   200 * simtime.Nanosecond,
	}
}

// linkState is the run-time state of one directed link.
type linkState struct {
	link *topology.Link
	// idx is the link's dense position in the fabric's ID-ordered
	// linkList; the solver's per-link arrays and the component
	// union-find are indexed by it.
	idx int
	// effective capacity after protocol derating, degradation.
	capacity topology.Rate
	// extraLatency is degradation-injected latency added to base.
	extraLatency simtime.Duration
	failed       bool
	degradeFrac  float64 // 0 = healthy, 0.5 = half capacity lost

	// flows crossing this link, ordered by ascending flow ID. IDs are
	// allocated monotonically, so installs append and removals splice;
	// every hot-path walk (accounting, max-min membership, stats)
	// iterates in ID order for free, with no per-event sorting.
	// memSlots mirrors flows element for element with each flow's
	// stable fill slot: the solver's filling rounds walk the slot array
	// and index the dense fill-state arena, never touching the Flow
	// structs themselves (see Fabric.fill).
	flows    []*Flow
	memSlots []int32

	// memberDirty records that the flow set changed since the last
	// computeRates pass, so currentRate must be resummed even when no
	// surviving member's rate moved.
	memberDirty bool

	// inboundRootPort marks links carrying device-initiated traffic
	// into a root port; such links pay the IOMMU translation cost when
	// the port's config says "translate".
	inboundRootPort *topology.Component // the root port, or nil

	// moderatingNIC marks inter-host links into a NIC; traffic
	// entering it pays the NIC's interrupt moderation, read live from
	// its config on every transaction (see traverse).
	moderatingNIC *topology.Component // the NIC, or nil

	// Per-tenant rate caps installed by the arbiter.
	caps map[TenantID]topology.Rate

	// hopLat is hopLatency's value at the link's current inputs, valid
	// while hopValid holds and, for an inbound root-port link, while
	// the port's ConfigGen still equals hopGen. hopValid is cleared
	// where the other inputs move: currentRate in computeRates, and
	// capacity, extraLatency and failed through markLinkDirty.
	hopLat   simtime.Duration
	hopGen   uint64
	hopValid bool

	// Accounting. tenantBytes is indexed by the fabric-wide tenant
	// slot (see Fabric.tenantSlot) instead of a map: settling accrues
	// one entry per member flow, and an array index there is an order
	// of magnitude cheaper than a string hash at identical float
	// accumulation order.
	lastUpdate  simtime.Time
	totalBytes  float64
	tenantBytes []float64
	currentRate topology.Rate // sum of allocated flow rates
}

// removeFlow splices fl out of the link's ID-ordered flow slice and
// the parallel member-slot array.
func (ls *linkState) removeFlow(fl *Flow) {
	i, ok := slices.BinarySearchFunc(ls.flows, fl.ID,
		func(a *Flow, id FlowID) int { return cmp.Compare(a.ID, id) })
	if !ok {
		return
	}
	copy(ls.flows[i:], ls.flows[i+1:])
	ls.flows[len(ls.flows)-1] = nil
	ls.flows = ls.flows[:len(ls.flows)-1]
	copy(ls.memSlots[i:], ls.memSlots[i+1:])
	ls.memSlots = ls.memSlots[:len(ls.memSlots)-1]
}

// Fabric simulates the intra-host network of one host.
type Fabric struct {
	topo   *topology.Topology
	engine *simtime.Engine
	cfg    Config

	links map[topology.LinkID]*linkState
	// linkList holds the links ordered by ID. The topology is immutable,
	// so this is built once in New and every deterministic link walk
	// reuses it allocation-free.
	linkList []*linkState
	flows    map[FlowID]*Flow
	// flowList holds the active flows ordered by ID. IDs are allocated
	// monotonically, so AddFlow appends and removal splices; hot-path
	// walks need no sorting and no map iteration.
	flowList []*Flow
	// sizedList holds the active sized (Size > 0) flows ordered by ID:
	// progress settling, completion scanning and completion-event
	// arming only ever touch sized flows, so a fabric dominated by
	// persistent flows skips them entirely.
	sizedList    []*Flow
	tenantWeight map[TenantID]float64
	nextID       uint64
	dirty        bool // rates need recomputation
	inRecompute  bool
	batching     bool // Batch() open: defer recomputation
	txStats      TransactionStats

	// tenantSlots assigns each tenant a dense slot on first use;
	// tenantList is the inverse mapping. Slots index per-link byte
	// accumulators.
	tenantSlots map[TenantID]int32
	tenantList  []TenantID

	// Scratch of EachLinkBytes: per-tenant-slot sums and marks, the
	// slots one link touched, and the tenants handed to the caller.
	projAcc     []float64
	projSeen    []bool
	projTouched []int32
	projBytes   []TenantBytes

	// fill is the solver's per-flow filling state, indexed by each
	// flow's stable slot (Flow.slot, allocated from freeSlots). Keeping
	// it as one dense 24-byte-per-flow arena — rather than fields
	// scattered across Flow structs — shrinks a filling round's working
	// set by an order of magnitude. slotFlow is the inverse mapping;
	// slotPath holds each slot's path as dense link indices (the per-
	// slot backing arrays are recycled with the slot); slotDemandCi is
	// the flow's demand-constraint index, -1 when it has none. Together
	// they let the freeze path run without touching a Flow struct.
	// slotRate is the authoritative allocated rate and slotTenant the
	// tenant accounting slot of each active flow, also slot-indexed:
	// rate installation, change detection, link resummation and byte
	// settling all sweep these dense arrays without touching a Flow.
	fill         []fillState
	slotFlow     []*Flow
	slotPath     [][]int32
	slotDemandCi []int32
	slotRate     []float64
	slotTenant   []int32
	slotFirst    []int32 // first path link (dense index); -1 = slot free
	freeSlots    []int32

	// Component partition over dense link indices (see solver.go):
	// union-find arrays, per-link dirty marks consumed by the next
	// solve, and the bridging-removal counter that triggers the
	// amortized partition rebuild.
	ufParent        []int32
	ufSize          []int32
	linkDirty       []bool
	bridgedRemovals int

	// sc holds the solver's cumulative counters (see SolverStats).
	sc solverCounters

	// pathScratch is reused by AddFlow to resolve a candidate path's
	// links before the flow is committed.
	pathScratch []*linkState

	// completionFn is the shared callback armed for every sized flow's
	// completion event; allocated once so re-arming allocates nothing.
	completionFn func()
	// doneScratch is reused by fireCompletions between recomputes.
	doneScratch []*Flow

	// scr holds the reusable max-min solver buffers (see maxmin.go).
	scr maxminScratch

	// sniffers receive a copy of every transaction record (ihdiag sniff).
	sniffers []*func(TxRecord)

	// txFree holds delivered transactions for reuse (see newTxn);
	// txRoute is the scratch route an unpinned send resolves into.
	txFree  []*txn
	txRoute *Route

	// capacityHook runs after any link's effective capacity changes
	// (see OnCapacityChange); nil when unset.
	capacityHook func()

	// met holds cached observability handles; nil when unattached.
	met *fabricMetrics
}

// New creates a fabric over the given topology, driven by the engine's
// virtual clock.
func New(topo *topology.Topology, engine *simtime.Engine, cfg Config) *Fabric {
	if cfg.MaxInflation <= 0 {
		cfg.MaxInflation = 40
	}
	if cfg.PCIeEfficiency <= 0 || cfg.PCIeEfficiency > 1 {
		cfg.PCIeEfficiency = 1
	}
	f := &Fabric{
		topo:         topo,
		engine:       engine,
		cfg:          cfg,
		links:        make(map[topology.LinkID]*linkState),
		flows:        make(map[FlowID]*Flow),
		tenantWeight: make(map[TenantID]float64),
		tenantSlots:  make(map[TenantID]int32),
	}
	for _, l := range topo.Links() {
		cap := l.Capacity
		if l.Class == topology.ClassPCIeUp || l.Class == topology.ClassPCIeDown {
			cap = topology.Rate(float64(cap) * cfg.PCIeEfficiency)
		}
		var inbound *topology.Component
		if to := topo.Component(l.To); to != nil && to.Kind == topology.KindRootPort {
			if from := topo.Component(l.From); from != nil && from.Kind != topology.KindLLC {
				inbound = to
			}
		}
		var nic *topology.Component
		if l.Class == topology.ClassInterHost {
			if to := topo.Component(l.To); to != nil && to.Kind == topology.KindNIC {
				nic = to
			}
		}
		f.links[l.ID] = &linkState{
			inboundRootPort: inbound,
			moderatingNIC:   nic,
			link:            l,
			capacity:        cap,
			caps:            make(map[TenantID]topology.Rate),
			lastUpdate:      engine.Now(),
		}
	}
	f.linkList = make([]*linkState, 0, len(f.links))
	for _, ls := range f.links {
		f.linkList = append(f.linkList, ls)
	}
	slices.SortFunc(f.linkList, func(a, b *linkState) int {
		return cmp.Compare(a.link.ID, b.link.ID)
	})
	for i, ls := range f.linkList {
		ls.idx = i
	}
	f.ufParent = make([]int32, len(f.linkList))
	f.ufSize = make([]int32, len(f.linkList))
	f.linkDirty = make([]bool, len(f.linkList))
	f.resetPartition()
	f.completionFn = func() {
		f.dirty = true
		f.recomputeIfDirty()
	}
	return f
}

// Topology returns the underlying (immutable) topology.
func (f *Fabric) Topology() *topology.Topology { return f.topo }

// Engine returns the virtual-time engine driving this fabric.
func (f *Fabric) Engine() *simtime.Engine { return f.engine }

// Config returns the fabric's behavioural configuration.
func (f *Fabric) Config() Config { return f.cfg }

func (f *Fabric) state(id topology.LinkID) (*linkState, error) {
	ls, ok := f.links[id]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown link %q", id)
	}
	return ls, nil
}

// tenantSlot returns the tenant's dense accounting slot, assigning one
// on first use. Slots are never reclaimed: the per-link byte arrays
// they index are append-only accumulators.
func (f *Fabric) tenantSlot(t TenantID) int32 {
	if s, ok := f.tenantSlots[t]; ok {
		return s
	}
	s := int32(len(f.tenantList))
	f.tenantSlots[t] = s
	f.tenantList = append(f.tenantList, t)
	return s
}

// sortedLinkStates returns link states ordered by link ID for
// deterministic iteration. The list is built once at construction (the
// topology is immutable) and must not be mutated by callers.
func (f *Fabric) sortedLinkStates() []*linkState { return f.linkList }

// Utilization returns the link's current utilization in [0,1]: the sum
// of allocated flow rates divided by effective capacity. Failed links
// report 1.
func (f *Fabric) Utilization(id topology.LinkID) (float64, error) {
	ls, err := f.state(id)
	if err != nil {
		return 0, err
	}
	f.recomputeIfDirty()
	if ls.failed {
		return 1, nil
	}
	if ls.capacity <= 0 {
		return 0, nil
	}
	u := float64(ls.currentRate) / float64(ls.capacity)
	return math.Min(u, 1), nil
}

// EffectiveCapacity returns the link's capacity after protocol derating
// and any injected degradation.
func (f *Fabric) EffectiveCapacity(id topology.LinkID) (topology.Rate, error) {
	ls, err := f.state(id)
	if err != nil {
		return 0, err
	}
	return ls.capacity, nil
}

// hopLatency returns the congestion-inflated one-way latency of a link
// at its current utilization. The value is computed once per change of
// its inputs (see linkState.hopLat); the config and base latencies it
// also reads are immutable.
func (f *Fabric) hopLatency(ls *linkState) simtime.Duration {
	port := ls.inboundRootPort
	if ls.hopValid && (port == nil || ls.hopGen == port.ConfigGen()) {
		return ls.hopLat
	}
	base := ls.link.BaseLatency + ls.extraLatency
	if port != nil {
		ls.hopGen = port.ConfigGen()
		if f.cfg.IOMMULatency > 0 {
			if v, ok := port.ConfigValue(topology.ConfigIOMMU); ok && v == "translate" {
				base += f.cfg.IOMMULatency
			}
		}
	}
	lat := base
	if f.cfg.QueueingFactor > 0 {
		var rho float64
		if ls.capacity > 0 {
			rho = math.Min(float64(ls.currentRate)/float64(ls.capacity), 0.999)
		}
		infl := 1 + f.cfg.QueueingFactor*rho/(1-rho)
		if infl > f.cfg.MaxInflation {
			infl = f.cfg.MaxInflation
		}
		lat = simtime.Duration(float64(base) * infl)
	}
	ls.hopLat, ls.hopValid = lat, true
	return lat
}

// PathLatency returns the current one-way latency along path for a
// negligible-size message, including congestion inflation on every hop.
// It returns an error containing the first failed link, if any.
func (f *Fabric) PathLatency(p topology.Path) (simtime.Duration, error) {
	f.recomputeIfDirty()
	var sum simtime.Duration
	for _, l := range p.Links {
		ls, err := f.state(l.ID)
		if err != nil {
			return 0, err
		}
		if ls.failed {
			return 0, fmt.Errorf("fabric: link %s failed", l.ID)
		}
		sum += f.hopLatency(ls)
	}
	return sum, nil
}
