package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/simtime"
)

// Topology is the complete intra-host network graph of one server:
// components (nodes) and directed links (edges). A Topology is built
// once and treated as immutable by the rest of the system; run-time
// state (flow rates, failures, counters) lives in the fabric simulator.
type Topology struct {
	// Name identifies the preset or host model, e.g. "two-socket".
	Name string

	components map[CompID]*Component
	links      map[LinkID]*Link
	out        map[CompID][]*Link // outgoing adjacency, insertion order
	in         map[CompID][]*Link
	// compList and linkList hold every component and link sorted by
	// ID. AddComponent and AddLink insert in place, so the ordered
	// walks (Components, Links, and through them the fabric, the
	// arbiter and the monitor) copy instead of sorting on every call.
	compList []*Component
	linkList []*Link

	// pathTable is the candidate-path table behind KShortestPaths,
	// filled on first use and never invalidated: links, latencies and
	// adjacency are fixed once the topology is built.
	pathMu    sync.Mutex
	pathTable map[pathKey]pathEntry
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{
		Name:       name,
		components: make(map[CompID]*Component),
		links:      make(map[LinkID]*Link),
		out:        make(map[CompID][]*Link),
		in:         make(map[CompID][]*Link),
	}
}

// AddComponent adds a node. It returns the component for further
// configuration, or an error on duplicate ID.
func (t *Topology) AddComponent(id CompID, kind Kind, socket int) (*Component, error) {
	if id == "" {
		return nil, fmt.Errorf("topology: empty component id")
	}
	if _, ok := t.components[id]; ok {
		return nil, fmt.Errorf("topology: duplicate component %q", id)
	}
	c := &Component{ID: id, Kind: kind, Socket: socket}
	t.components[id] = c
	i, _ := slices.BinarySearchFunc(t.compList, id, func(c *Component, id CompID) int { return cmp.Compare(c.ID, id) })
	t.compList = slices.Insert(t.compList, i, c)
	return c, nil
}

// MustAddComponent is AddComponent that panics on error; used by
// presets where IDs are statically known to be unique.
func (t *Topology) MustAddComponent(id CompID, kind Kind, socket int) *Component {
	c, err := t.AddComponent(id, kind, socket)
	if err != nil {
		panic(err)
	}
	return c
}

// LinkSpec describes one bidirectional fabric connection to add.
type LinkSpec struct {
	A, B        CompID
	Class       LinkClass
	Capacity    Rate             // per direction
	BaseLatency simtime.Duration // per direction
}

// AddLink adds a full-duplex connection as two directed links (A->B and
// B->A), each with the spec's capacity and latency. It returns the two
// link IDs.
func (t *Topology) AddLink(spec LinkSpec) (fwd, rev LinkID, err error) {
	if _, ok := t.components[spec.A]; !ok {
		return "", "", fmt.Errorf("topology: link endpoint %q not found", spec.A)
	}
	if _, ok := t.components[spec.B]; !ok {
		return "", "", fmt.Errorf("topology: link endpoint %q not found", spec.B)
	}
	if spec.A == spec.B {
		return "", "", fmt.Errorf("topology: self-link on %q", spec.A)
	}
	if spec.Capacity <= 0 {
		return "", "", fmt.Errorf("topology: non-positive capacity on %s-%s", spec.A, spec.B)
	}
	if spec.BaseLatency < 0 {
		return "", "", fmt.Errorf("topology: negative latency on %s-%s", spec.A, spec.B)
	}
	fwd, rev = linkIDFor(spec.A, spec.B), linkIDFor(spec.B, spec.A)
	if _, ok := t.links[fwd]; ok {
		return "", "", fmt.Errorf("topology: duplicate link %s", fwd)
	}
	f := &Link{ID: fwd, From: spec.A, To: spec.B, Class: spec.Class,
		Capacity: spec.Capacity, BaseLatency: spec.BaseLatency, Reverse: rev}
	r := &Link{ID: rev, From: spec.B, To: spec.A, Class: spec.Class,
		Capacity: spec.Capacity, BaseLatency: spec.BaseLatency, Reverse: fwd}
	t.links[fwd], t.links[rev] = f, r
	t.out[spec.A] = append(t.out[spec.A], f)
	t.out[spec.B] = append(t.out[spec.B], r)
	t.in[spec.B] = append(t.in[spec.B], f)
	t.in[spec.A] = append(t.in[spec.A], r)
	t.insertLink(f)
	t.insertLink(r)
	// A new link can open new paths; the table holds only answers for
	// the finished graph.
	t.pathTable = nil
	return fwd, rev, nil
}

// insertLink adds l to the ID-sorted link list.
func (t *Topology) insertLink(l *Link) {
	i, _ := slices.BinarySearchFunc(t.linkList, l.ID, func(l *Link, id LinkID) int { return cmp.Compare(l.ID, id) })
	t.linkList = slices.Insert(t.linkList, i, l)
}

// MustAddLink is AddLink that panics on error.
func (t *Topology) MustAddLink(spec LinkSpec) (fwd, rev LinkID) {
	fwd, rev, err := t.AddLink(spec)
	if err != nil {
		panic(err)
	}
	return fwd, rev
}

// Component returns the component with the given ID, or nil.
func (t *Topology) Component(id CompID) *Component { return t.components[id] }

// Link returns the directed link with the given ID, or nil.
func (t *Topology) Link(id LinkID) *Link { return t.links[id] }

// Outgoing returns the outgoing links of a component in insertion order.
// The returned slice must not be modified.
func (t *Topology) Outgoing(id CompID) []*Link { return t.out[id] }

// Incoming returns the incoming links of a component in insertion order.
func (t *Topology) Incoming(id CompID) []*Link { return t.in[id] }

// Components returns all components sorted by ID for deterministic
// iteration. The slice is the caller's.
func (t *Topology) Components() []*Component {
	return append(make([]*Component, 0, len(t.compList)), t.compList...)
}

// Links returns all directed links sorted by ID. The slice is the
// caller's.
func (t *Topology) Links() []*Link {
	return append(make([]*Link, 0, len(t.linkList)), t.linkList...)
}

// ComponentsOfKind returns all components of kind k, sorted by ID.
func (t *Topology) ComponentsOfKind(k Kind) []*Component {
	var out []*Component
	for _, c := range t.compList {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// Endpoints returns all traffic-originating components, sorted by ID.
func (t *Topology) Endpoints() []*Component {
	var out []*Component
	for _, c := range t.compList {
		if c.Kind.IsEndpoint() {
			out = append(out, c)
		}
	}
	return out
}

// NumComponents returns the node count.
func (t *Topology) NumComponents() int { return len(t.components) }

// NumLinks returns the directed-edge count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Validate checks structural invariants: at least one component, all
// links well-formed with consistent reverse pointers, and the
// undirected graph connected. Figure 1 envelope conformance is checked
// by experiment E1 against measured behaviour, not here.
func (t *Topology) Validate() error {
	if len(t.components) == 0 {
		return fmt.Errorf("topology %q: no components", t.Name)
	}
	for id, l := range t.links {
		if l.ID != id {
			return fmt.Errorf("topology %q: link map key %q != link ID %q", t.Name, id, l.ID)
		}
		rev, ok := t.links[l.Reverse]
		if !ok {
			return fmt.Errorf("topology %q: link %s missing reverse %s", t.Name, l.ID, l.Reverse)
		}
		if rev.From != l.To || rev.To != l.From {
			return fmt.Errorf("topology %q: link %s reverse mismatch", t.Name, l.ID)
		}
	}
	// Connectivity via BFS over undirected edges.
	var start CompID
	for id := range t.components {
		start = id
		break
	}
	seen := map[CompID]bool{start: true}
	queue := []CompID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range t.out[cur] {
			if !seen[l.To] {
				seen[l.To] = true
				queue = append(queue, l.To)
			}
		}
		for _, l := range t.in[cur] {
			if !seen[l.From] {
				seen[l.From] = true
				queue = append(queue, l.From)
			}
		}
	}
	if len(seen) != len(t.components) {
		return fmt.Errorf("topology %q: graph not connected (%d of %d reachable)",
			t.Name, len(seen), len(t.components))
	}
	return nil
}
