package topology

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Path is an ordered sequence of directed links from a source component
// to a destination component.
type Path struct {
	Links []*Link
}

// Src returns the path's source component, or "" for an empty path.
func (p Path) Src() CompID {
	if len(p.Links) == 0 {
		return ""
	}
	return p.Links[0].From
}

// Dst returns the path's destination component, or "" for an empty path.
func (p Path) Dst() CompID {
	if len(p.Links) == 0 {
		return ""
	}
	return p.Links[len(p.Links)-1].To
}

// Hops returns the number of links.
func (p Path) Hops() int { return len(p.Links) }

// BaseLatency returns the sum of uncongested link latencies.
func (p Path) BaseLatency() simtime.Duration {
	var sum simtime.Duration
	for _, l := range p.Links {
		sum += l.BaseLatency
	}
	return sum
}

// BottleneckCapacity returns the minimum link capacity along the path,
// or 0 for an empty path.
func (p Path) BottleneckCapacity() Rate {
	if len(p.Links) == 0 {
		return 0
	}
	min := p.Links[0].Capacity
	for _, l := range p.Links[1:] {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}

// Nodes returns the component IDs visited, source first.
func (p Path) Nodes() []CompID {
	if len(p.Links) == 0 {
		return nil
	}
	out := make([]CompID, 0, len(p.Links)+1)
	out = append(out, p.Links[0].From)
	for _, l := range p.Links {
		out = append(out, l.To)
	}
	return out
}

// LinkIDs returns the directed link IDs in order.
func (p Path) LinkIDs() []LinkID {
	out := make([]LinkID, len(p.Links))
	for i, l := range p.Links {
		out[i] = l.ID
	}
	return out
}

// HasLink reports whether the path traverses the given directed link.
func (p Path) HasLink(id LinkID) bool {
	for _, l := range p.Links {
		if l.ID == id {
			return true
		}
	}
	return false
}

func (p Path) String() string {
	nodes := p.Nodes()
	if len(nodes) == 0 {
		return "<empty path>"
	}
	s := string(nodes[0])
	for _, n := range nodes[1:] {
		s += " -> " + string(n)
	}
	return s
}

// Classes returns the set of link classes the path traverses, in
// first-traversal order.
func (p Path) Classes() []LinkClass {
	var out []LinkClass
	seen := make(map[LinkClass]bool)
	for _, l := range p.Links {
		if !seen[l.Class] {
			seen[l.Class] = true
			out = append(out, l.Class)
		}
	}
	return out
}

// ShortestPath returns the minimum-latency path from src to dst using
// Dijkstra over link base latencies (ties broken by hop count, then by
// lexicographic link ID for determinism). It returns an error when no
// path exists.
func (t *Topology) ShortestPath(src, dst CompID) (Path, error) {
	return t.shortestPathAvoiding(src, dst, nil, nil)
}

// shortestPathAvoiding runs Dijkstra while treating the given links and
// nodes as removed. Either set may be nil.
func (t *Topology) shortestPathAvoiding(src, dst CompID, banLinks map[LinkID]bool, banNodes map[CompID]bool) (Path, error) {
	if t.components[src] == nil {
		return Path{}, fmt.Errorf("topology: unknown source %q", src)
	}
	if t.components[dst] == nil {
		return Path{}, fmt.Errorf("topology: unknown destination %q", dst)
	}
	if src == dst {
		return Path{}, fmt.Errorf("topology: source equals destination %q", src)
	}
	type state struct {
		lat  simtime.Duration
		hops int
		via  *Link
	}
	dist := map[CompID]state{src: {}}
	visited := make(map[CompID]bool)
	for {
		// Select the unvisited node with the smallest (lat, hops, id).
		var cur CompID
		best := state{lat: 1<<62 - 1}
		found := false
		for id, st := range dist {
			if visited[id] {
				continue
			}
			if !found || st.lat < best.lat ||
				(st.lat == best.lat && st.hops < best.hops) ||
				(st.lat == best.lat && st.hops == best.hops && id < cur) {
				cur, best, found = id, st, true
			}
		}
		if !found {
			return Path{}, fmt.Errorf("topology: no path %s -> %s", src, dst)
		}
		if cur == dst {
			break
		}
		visited[cur] = true
		// Leaf devices terminate traffic; only the source itself may
		// originate through one.
		if cur != src && !t.components[cur].Kind.CanForward() {
			continue
		}
		out := append([]*Link(nil), t.out[cur]...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		for _, l := range out {
			if banLinks[l.ID] || banNodes[l.To] || visited[l.To] {
				continue
			}
			cand := state{lat: best.lat + l.BaseLatency, hops: best.hops + 1, via: l}
			old, ok := dist[l.To]
			if !ok || cand.lat < old.lat || (cand.lat == old.lat && cand.hops < old.hops) {
				dist[l.To] = cand
			}
		}
	}
	// Reconstruct.
	var rev []*Link
	for cur := dst; cur != src; {
		st := dist[cur]
		if st.via == nil {
			return Path{}, fmt.Errorf("topology: broken predecessor chain at %q", cur)
		}
		rev = append(rev, st.via)
		cur = st.via.From
	}
	links := make([]*Link, len(rev))
	for i, l := range rev {
		links[len(rev)-1-i] = l
	}
	return Path{Links: links}, nil
}

// KShortestPaths returns up to k loop-free minimum-latency paths from
// src to dst in increasing latency order, using Yen's algorithm. It is
// the candidate-set generator for the topology-aware scheduler.
//
// The answer depends only on the graph, which never changes after the
// topology is built, so each (src, dst, k) is computed once and kept
// in the topology's candidate-path table, errors included. Every call
// returns its own copy: a caller may append to or overwrite the
// result without touching the table.
func (t *Topology) KShortestPaths(src, dst CompID, k int) ([]Path, error) {
	key := pathKey{src, dst, k}
	t.pathMu.Lock()
	e, ok := t.pathTable[key]
	if !ok {
		e.paths, e.err = t.kShortestPaths(src, dst, k)
		if t.pathTable == nil {
			t.pathTable = make(map[pathKey]pathEntry)
		}
		t.pathTable[key] = e
	}
	t.pathMu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	return copyPaths(e.paths), nil
}

// pathKey and pathEntry are one row of the candidate-path table.
type pathKey struct {
	src, dst CompID
	k        int
}

type pathEntry struct {
	paths []Path
	err   error
}

// copyPaths returns a copy of ps whose link slices share one new
// backing array, each clipped to its own length.
func copyPaths(ps []Path) []Path {
	n := 0
	for _, p := range ps {
		n += len(p.Links)
	}
	links := make([]*Link, 0, n)
	out := make([]Path, len(ps))
	for i, p := range ps {
		start := len(links)
		links = append(links, p.Links...)
		out[i] = Path{Links: links[start:len(links):len(links)]}
	}
	return out
}

// kShortestPaths is Yen's algorithm itself, uncached.
func (t *Topology) kShortestPaths(src, dst CompID, k int) ([]Path, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topology: k must be positive, got %d", k)
	}
	first, err := t.ShortestPath(src, dst)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes()
		for i := 0; i < prev.Hops(); i++ {
			spurNode := prevNodes[i]
			rootLinks := prev.Links[:i]
			banLinks := make(map[LinkID]bool)
			for _, p := range paths {
				if sharesRoot(p, rootLinks) && p.Hops() > i {
					banLinks[p.Links[i].ID] = true
				}
			}
			banNodes := make(map[CompID]bool)
			for _, n := range prevNodes[:i] {
				banNodes[n] = true
			}
			spur, err := t.shortestPathAvoiding(spurNode, dst, banLinks, banNodes)
			if err != nil {
				continue
			}
			total := Path{Links: append(append([]*Link(nil), rootLinks...), spur.Links...)}
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			li, lj := candidates[i].BaseLatency(), candidates[j].BaseLatency()
			if li != lj {
				return li < lj
			}
			if candidates[i].Hops() != candidates[j].Hops() {
				return candidates[i].Hops() < candidates[j].Hops()
			}
			return candidates[i].String() < candidates[j].String()
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func sharesRoot(p Path, root []*Link) bool {
	if p.Hops() < len(root) {
		return false
	}
	for i, l := range root {
		if p.Links[i].ID != l.ID {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if q.Hops() != p.Hops() {
			continue
		}
		same := true
		for i := range q.Links {
			if q.Links[i].ID != p.Links[i].ID {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
