package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestShortestPathMinimal(t *testing.T) {
	top := MinimalHost()
	p, err := top.ShortestPath("nic0", "socket0.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != "nic0" || p.Dst() != "socket0.dimm0_0" {
		t.Fatalf("path endpoints %s -> %s", p.Src(), p.Dst())
	}
	// nic0 -> switch -> rootport -> llc -> memctrl -> dimm.
	wantNodes := []CompID{"nic0", "pcieswitch0", "socket0.rootport0",
		"socket0.llc", "socket0.memctrl0", "socket0.dimm0_0"}
	nodes := p.Nodes()
	if len(nodes) != len(wantNodes) {
		t.Fatalf("path %v, want %v", nodes, wantNodes)
	}
	for i := range wantNodes {
		if nodes[i] != wantNodes[i] {
			t.Fatalf("path %v, want %v", nodes, wantNodes)
		}
	}
}

func TestShortestPathLatencyIsSumOfLinks(t *testing.T) {
	top := TwoSocketServer()
	p, err := top.ShortestPath("gpu0", "socket0.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	var sum simtime.Duration
	for _, l := range p.Links {
		sum += l.BaseLatency
	}
	if p.BaseLatency() != sum {
		t.Fatalf("BaseLatency %v != sum %v", p.BaseLatency(), sum)
	}
	if sum <= 0 {
		t.Fatal("zero path latency")
	}
}

func TestShortestPathCrossSocket(t *testing.T) {
	top := TwoSocketServer()
	p, err := top.ShortestPath("gpu0", "socket1.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	hasUPI := false
	for _, l := range p.Links {
		if l.Class == ClassInterSocket {
			hasUPI = true
		}
	}
	if !hasUPI {
		t.Fatalf("cross-socket path %s avoids inter-socket link", p)
	}
}

func TestShortestPathErrors(t *testing.T) {
	top := MinimalHost()
	if _, err := top.ShortestPath("nope", "nic0"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := top.ShortestPath("nic0", "nope"); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := top.ShortestPath("nic0", "nic0"); err == nil {
		t.Error("src==dst accepted")
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	top := New("t")
	top.MustAddComponent("a", KindCPU, 0)
	top.MustAddComponent("b", KindGPU, 0)
	top.MustAddComponent("c", KindNIC, 0)
	top.MustAddLink(LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 1})
	if _, err := top.ShortestPath("a", "c"); err == nil {
		t.Fatal("found path in disconnected graph")
	}
}

func TestEndToEndPathTraversesAllClasses(t *testing.T) {
	// The paper's motivating example: a remote RDMA access traverses
	// classes (1)-(5). From external0 to socket1 memory via nic0
	// (socket 0) the path must cross inter-host, PCIe down, PCIe up,
	// intra-socket and inter-socket links.
	top := TwoSocketServer()
	p, err := top.ShortestPath("external0", "socket1.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	// Force entry via nic0: external0 connects to both NICs; the
	// shortest route to socket1 memory goes via nic1 (no UPI hop), so
	// check class coverage on the nic0-entry variant too.
	classes := make(map[LinkClass]bool)
	for _, l := range p.Links {
		classes[l.Class] = true
	}
	for _, c := range []LinkClass{ClassInterHost, ClassPCIeDown, ClassPCIeUp, ClassIntraSocket} {
		if !classes[c] {
			t.Errorf("end-to-end path missing class %v: %s", c, p)
		}
	}
	p2, err := top.ShortestPath("nic0", "socket1.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	has1 := false
	for _, l := range p2.Links {
		if l.Class == ClassInterSocket {
			has1 = true
		}
	}
	if !has1 {
		t.Errorf("nic0 -> socket1 memory path missing inter-socket hop: %s", p2)
	}
}

func TestNoTransitThroughLeafDevices(t *testing.T) {
	// Routes must never hairpin through a GPU, SSD, DIMM or the
	// external node: nic0 -> socket1 memory must use the UPI, not
	// bounce out nic0 -> external -> nic1.
	top := TwoSocketServer()
	p, err := top.ShortestPath("nic0", "socket1.dimm0_0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	for _, n := range nodes[1 : len(nodes)-1] {
		if !top.Component(n).Kind.CanForward() {
			t.Fatalf("path transits leaf device %s: %s", n, p)
		}
	}
	// Same invariant over k-shortest between every endpoint pair.
	eps := top.Endpoints()
	for _, a := range eps {
		for _, b := range eps {
			if a.ID == b.ID {
				continue
			}
			paths, err := top.KShortestPaths(a.ID, b.ID, 3)
			if err != nil {
				continue
			}
			for _, p := range paths {
				ns := p.Nodes()
				for _, n := range ns[1 : len(ns)-1] {
					if !top.Component(n).Kind.CanForward() {
						t.Fatalf("k-path transits leaf %s: %s", n, p)
					}
				}
			}
		}
	}
}

func TestCanForward(t *testing.T) {
	for k, want := range map[Kind]bool{
		KindCPU: true, KindNIC: true, KindLLC: true, KindPCIeSwitch: true,
		KindRootPort: true, KindMemCtrl: true,
		KindGPU: false, KindSSD: false, KindDIMM: false, KindExternal: false, KindFPGA: false,
	} {
		if k.CanForward() != want {
			t.Errorf("%v.CanForward() = %v, want %v", k, !want, want)
		}
	}
}

func TestKShortestPathsDistinctAndOrdered(t *testing.T) {
	top := TwoSocketServer()
	// gpu0 to memory: alternatives exist via memctrl0/memctrl1 and the
	// two DIMMs... but to a fixed DIMM, alternates route via other
	// memctrl are impossible; use k paths to a DIMM via different
	// intermediate orderings. Use a pair with real diversity:
	paths, err := top.KShortestPaths("gpu0", "socket0.dimm0_0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].BaseLatency() < paths[i-1].BaseLatency() {
			t.Fatalf("paths not in latency order: %v then %v",
				paths[i-1].BaseLatency(), paths[i].BaseLatency())
		}
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate path %s", s)
		}
		seen[s] = true
		if p.Src() != "gpu0" || p.Dst() != "socket0.dimm0_0" {
			t.Fatalf("path endpoints wrong: %s", s)
		}
	}
}

func TestKShortestPathsLoopFree(t *testing.T) {
	top := DGXStyle()
	paths, err := top.KShortestPaths("gpu0", "ssd2", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		nodes := p.Nodes()
		seen := make(map[CompID]bool)
		for _, n := range nodes {
			if seen[n] {
				t.Fatalf("path has loop at %s: %s", n, p)
			}
			seen[n] = true
		}
	}
}

func TestKShortestPathsKValidation(t *testing.T) {
	top := MinimalHost()
	if _, err := top.KShortestPaths("nic0", "gpu0", 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	paths, err := top.KShortestPaths("nic0", "gpu0", 1)
	if err != nil || len(paths) != 1 {
		t.Fatalf("k=1: %v, %d paths", err, len(paths))
	}
}

// TestKShortestPathsTableMatchesUncached is the differential gate for
// the candidate-path table: on every preset, for every ordered pair of
// components and every k in 1..4, the table's answer equals a fresh
// run of Yen's algorithm path for path, errors included, both on the
// call that fills the entry and on the call that reads it back.
func TestKShortestPathsTableMatchesUncached(t *testing.T) {
	for _, name := range PresetNames() {
		top := Presets[name]()
		comps := top.Components()
		for _, a := range comps {
			for _, b := range comps {
				for k := 1; k <= 4; k++ {
					want, wantErr := top.kShortestPaths(a.ID, b.ID, k)
					for pass := 0; pass < 2; pass++ {
						got, err := top.KShortestPaths(a.ID, b.ID, k)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("%s %s->%s k=%d pass %d: error %v, want %v", name, a.ID, b.ID, k, pass, err, wantErr)
						}
						if !samePaths(got, want) {
							t.Fatalf("%s %s->%s k=%d pass %d: table %v, uncached %v", name, a.ID, b.ID, k, pass, got, want)
						}
					}
				}
			}
		}
	}
}

func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Links, b[i].Links) {
			return false
		}
	}
	return true
}

// TestKShortestPathsResultIsCallers: writing into or appending to a
// returned slice, or to one of its paths' links, leaves the next
// call's answer unchanged.
func TestKShortestPathsResultIsCallers(t *testing.T) {
	top := DGXStyle()
	want, err := top.kShortestPaths("cpu0", "external0", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := top.KShortestPaths("cpu0", "external0", 4)
	if err != nil || len(got) < 2 {
		t.Fatalf("got %d paths, err %v", len(got), err)
	}
	stray := top.Links()[0]
	got[0].Links[0] = stray
	got[1].Links = append(got[1].Links, stray)
	_ = append(got[0].Links, stray)
	got[len(got)-1] = Path{}
	_ = append(got, Path{Links: []*Link{stray}})
	again, err := top.KShortestPaths("cpu0", "external0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !samePaths(again, want) {
		t.Fatalf("table corrupted through a returned slice: %v, want %v", again, want)
	}
}

// TestKShortestPathsConcurrent runs table fills and reads from several
// goroutines on one topology; under -race it proves the table's
// locking.
func TestKShortestPathsConcurrent(t *testing.T) {
	top := TwoSocketServer()
	comps := top.Endpoints()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, a := range comps {
				b := comps[(i+g+1)%len(comps)]
				ps, err := top.KShortestPaths(a.ID, b.ID, 1+g%3)
				if err == nil && len(ps) > 0 {
					ps[0].Links = nil
				}
			}
		}(g)
	}
	wg.Wait()
	for i, a := range comps {
		for g := 0; g < 4; g++ {
			b := comps[(i+g+1)%len(comps)]
			got, err := top.KShortestPaths(a.ID, b.ID, 1+g%3)
			want, wantErr := top.kShortestPaths(a.ID, b.ID, 1+g%3)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !samePaths(got, want) {
				t.Fatalf("%s->%s: %v (%v), want %v (%v)", a.ID, b.ID, got, err, want, wantErr)
			}
		}
	}
}

func TestPathHelpers(t *testing.T) {
	top := MinimalHost()
	p, _ := top.ShortestPath("nic0", "gpu0")
	if p.Hops() != len(p.Links) {
		t.Fatal("Hops wrong")
	}
	if p.BottleneckCapacity() <= 0 {
		t.Fatal("bottleneck not positive")
	}
	if !p.HasLink(p.Links[0].ID) {
		t.Fatal("HasLink false for own link")
	}
	if p.HasLink("nope->nope") {
		t.Fatal("HasLink true for absent link")
	}
	if len(p.LinkIDs()) != p.Hops() {
		t.Fatal("LinkIDs length wrong")
	}
	if len(p.Classes()) == 0 {
		t.Fatal("Classes empty")
	}
	var empty Path
	if empty.Src() != "" || empty.Dst() != "" || empty.BottleneckCapacity() != 0 {
		t.Fatal("empty path accessors wrong")
	}
	if empty.String() != "<empty path>" {
		t.Fatal("empty path String wrong")
	}
}

// Property: the shortest path between random endpoint pairs, when it
// exists, has latency no greater than any k-shortest alternative and
// starts/ends at the right components.
func TestPropertyShortestIsMinimal(t *testing.T) {
	top := DGXStyle()
	eps := top.Endpoints()
	f := func(a, b uint8) bool {
		src := eps[int(a)%len(eps)].ID
		dst := eps[int(b)%len(eps)].ID
		if src == dst {
			return true
		}
		sp, err := top.ShortestPath(src, dst)
		if err != nil {
			return true
		}
		alts, err := top.KShortestPaths(src, dst, 3)
		if err != nil {
			return false
		}
		for _, alt := range alts {
			if alt.BaseLatency() < sp.BaseLatency() {
				return false
			}
			if alt.Src() != src || alt.Dst() != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every hop in a shortest path is a real topology link and
// consecutive links chain correctly.
func TestPropertyPathWellFormed(t *testing.T) {
	top := TwoSocketServer()
	eps := top.Endpoints()
	f := func(a, b uint8) bool {
		src := eps[int(a)%len(eps)].ID
		dst := eps[int(b)%len(eps)].ID
		if src == dst {
			return true
		}
		p, err := top.ShortestPath(src, dst)
		if err != nil {
			return true
		}
		for i, l := range p.Links {
			if top.Link(l.ID) != l {
				return false
			}
			if i > 0 && p.Links[i-1].To != l.From {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShortestPathDGX(b *testing.B) {
	top := DGXStyle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.ShortestPath("gpu0", "socket1.dimm1_1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKShortest4DGX(b *testing.B) {
	top := DGXStyle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.KShortestPaths("gpu0", "socket1.dimm1_1", 4); err != nil {
			b.Fatal(err)
		}
	}
}
