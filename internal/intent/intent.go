// Package intent implements the paper's "performance targets
// interpreter" (§3.2): it compiles an application's declared intent —
// "20 Gb/s between my GPU and memory, under 3 us" — into low-level,
// topology-specific requirements: a set of candidate pathways able to
// carry the rate within the latency bound (pipe model), or a per-link
// hose reservation (hose model). The interpreter is deliberately
// generic over topologies: the same intent compiles on any host
// preset, which is what lets tenants migrate without reconfiguring
// their intra-host network.
package intent

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/resmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Pseudo-destinations the interpreter expands against the concrete
// topology.
const (
	// AnyMemory targets any DIMM on the host; the scheduler picks the
	// pathway (and thereby the memory placement).
	AnyMemory topology.CompID = "memory:any"
	// MemorySocketPrefix targets any DIMM on one socket, e.g.
	// "memory:socket0".
	MemorySocketPrefix = "memory:socket"
)

// IsMemoryPseudo reports whether dst is a memory pseudo-destination
// (AnyMemory or a MemorySocketPrefix name) rather than a component.
func IsMemoryPseudo(dst topology.CompID) bool {
	return dst == AnyMemory || strings.HasPrefix(string(dst), MemorySocketPrefix)
}

// Target is one application intent.
type Target struct {
	Tenant fabric.TenantID
	Model  resmodel.Model

	// Pipe-model fields.
	Src topology.CompID
	// Dst is a concrete component or a memory pseudo-destination.
	Dst  topology.CompID
	Rate topology.Rate
	// MaxLatency bounds the pathway's idle latency; zero means
	// unconstrained.
	MaxLatency simtime.Duration

	// Hose-model field: the tenant's per-endpoint guarantees.
	Hoses []resmodel.HoseDemand
}

func (t Target) String() string {
	if t.Model == resmodel.ModelHose {
		return fmt.Sprintf("%s: hose over %d endpoints", t.Tenant, len(t.Hoses))
	}
	return fmt.Sprintf("%s: pipe %s -> %s @ %v", t.Tenant, t.Src, t.Dst, t.Rate)
}

// Requirement is a compiled intent, ready for the scheduler.
type Requirement struct {
	Target Target
	// Candidates are the feasible pathways for a pipe intent, sorted
	// by idle latency: every candidate can carry Target.Rate within
	// Target.MaxLatency on an otherwise idle fabric.
	Candidates []topology.Path
	// HoseReservation is the compiled per-link requirement for a hose
	// intent.
	HoseReservation resmodel.Reservation
}

// Interpreter compiles intents against one topology.
type Interpreter struct {
	topo *topology.Topology
	// k is the number of alternative paths generated per concrete
	// destination.
	k int
	// effCap returns a link's usable capacity; the fabric's derated
	// capacities are used when available so feasibility checks match
	// what the fabric will actually deliver.
	effCap func(topology.LinkID) topology.Rate
}

// New builds an interpreter generating up to k candidate paths per
// concrete destination. fab may be nil, in which case raw topology
// capacities are used for feasibility.
func New(topo *topology.Topology, k int, fab *fabric.Fabric) (*Interpreter, error) {
	if k <= 0 {
		return nil, fmt.Errorf("intent: k must be positive")
	}
	eff := func(id topology.LinkID) topology.Rate {
		if l := topo.Link(id); l != nil {
			return l.Capacity
		}
		return 0
	}
	if fab != nil {
		eff = func(id topology.LinkID) topology.Rate {
			c, err := fab.EffectiveCapacity(id)
			if err != nil {
				return 0
			}
			return c
		}
	}
	return &Interpreter{topo: topo, k: k, effCap: eff}, nil
}

// Compile turns one target into a requirement, or explains why it is
// unsatisfiable on this topology.
func (in *Interpreter) Compile(t Target) (Requirement, error) {
	switch t.Model {
	case resmodel.ModelHose:
		return in.compileHose(t)
	case resmodel.ModelPipe, "":
		return in.compilePipe(t)
	}
	return Requirement{}, fmt.Errorf("intent: unknown model %q", t.Model)
}

// CompileAll compiles a batch, failing on the first unsatisfiable
// target.
func (in *Interpreter) CompileAll(targets []Target) ([]Requirement, error) {
	out := make([]Requirement, 0, len(targets))
	for _, t := range targets {
		r, err := in.Compile(t)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (in *Interpreter) compileHose(t Target) (Requirement, error) {
	if t.Tenant == "" {
		return Requirement{}, fmt.Errorf("intent: empty tenant")
	}
	res, err := resmodel.ProvisionHose(in.topo, t.Hoses)
	if err != nil {
		return Requirement{}, err
	}
	// Feasibility: the hose reservation alone must fit link
	// capacities.
	free := make(map[topology.LinkID]topology.Rate, len(res.Links))
	for l := range res.Links {
		free[l] = in.effCap(l)
	}
	if v := resmodel.CheckFit(res, free); len(v) != 0 {
		return Requirement{}, fmt.Errorf("intent: hose infeasible: %v", v[0])
	}
	return Requirement{Target: t, HoseReservation: res}, nil
}

func (in *Interpreter) compilePipe(t Target) (Requirement, error) {
	if t.Tenant == "" {
		return Requirement{}, fmt.Errorf("intent: empty tenant")
	}
	if t.Rate <= 0 {
		return Requirement{}, fmt.Errorf("intent: non-positive rate %v", t.Rate)
	}
	if in.topo.Component(t.Src) == nil {
		return Requirement{}, fmt.Errorf("intent: unknown source %q", t.Src)
	}
	dsts, err := in.expandDst(t.Dst)
	if err != nil {
		return Requirement{}, err
	}
	// The enumeration comes from the topology's candidate-path table:
	// the graph is fixed, so only the feasibility filter below, which
	// reads effective capacity, has to run on every compile.
	var candidates []topology.Path
	for _, d := range dsts {
		if d == t.Src {
			continue
		}
		paths, err := in.topo.KShortestPaths(t.Src, d, in.k)
		if err != nil {
			continue
		}
		candidates = append(candidates, paths...)
	}
	// Filter: capacity and latency feasibility. When no single
	// pathway can carry the rate, fall back to the latency-feasible
	// set so the scheduler may stripe the pipe across several
	// pathways — provided their combined bottlenecks could possibly
	// cover it (an optimistic bound; the scheduler's split placement
	// does the exact accounting).
	feasible := make([]topology.Path, 0, len(candidates))
	latencyOK := make([]topology.Path, 0, len(candidates))
	var sumCap topology.Rate
	for _, p := range candidates {
		if t.MaxLatency > 0 && p.BaseLatency() > t.MaxLatency {
			continue
		}
		latencyOK = append(latencyOK, p)
		sumCap += in.pathCapacity(p)
		if in.pathCapacity(p) >= t.Rate {
			feasible = append(feasible, p)
		}
	}
	if len(feasible) == 0 {
		if len(latencyOK) >= 2 && sumCap >= t.Rate {
			feasible = latencyOK
		} else {
			return Requirement{}, fmt.Errorf(
				"intent: %s: no pathway (or combination) can carry %v within latency bound %v",
				t, t.Rate, t.MaxLatency)
		}
	}
	sort.Slice(feasible, func(i, j int) bool {
		li, lj := feasible[i].BaseLatency(), feasible[j].BaseLatency()
		if li != lj {
			return li < lj
		}
		return feasible[i].String() < feasible[j].String()
	})
	return Requirement{Target: t, Candidates: feasible}, nil
}

func (in *Interpreter) pathCapacity(p topology.Path) topology.Rate {
	var min topology.Rate
	for i, l := range p.Links {
		c := in.effCap(l.ID)
		if i == 0 || c < min {
			min = c
		}
	}
	return min
}

// memoryComponents returns the host's schedulable memory: DRAM DIMMs
// and CXL memory expanders.
func (in *Interpreter) memoryComponents() []*topology.Component {
	out := in.topo.ComponentsOfKind(topology.KindDIMM)
	out = append(out, in.topo.ComponentsOfKind(topology.KindCXLMem)...)
	return out
}

// expandDst resolves pseudo-destinations to concrete components.
func (in *Interpreter) expandDst(dst topology.CompID) ([]topology.CompID, error) {
	switch {
	case dst == AnyMemory:
		mems := in.memoryComponents()
		if len(mems) == 0 {
			return nil, fmt.Errorf("intent: host has no memory")
		}
		out := make([]topology.CompID, len(mems))
		for i, d := range mems {
			out[i] = d.ID
		}
		return out, nil
	case strings.HasPrefix(string(dst), MemorySocketPrefix):
		sock, err := strconv.Atoi(strings.TrimPrefix(string(dst), MemorySocketPrefix))
		if err != nil {
			return nil, fmt.Errorf("intent: bad memory destination %q", dst)
		}
		var out []topology.CompID
		for _, d := range in.memoryComponents() {
			if d.Socket == sock {
				out = append(out, d.ID)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("intent: socket %d has no memory", sock)
		}
		return out, nil
	default:
		if in.topo.Component(dst) == nil {
			return nil, fmt.Errorf("intent: unknown destination %q", dst)
		}
		return []topology.CompID{dst}, nil
	}
}
