package topology

import (
	"strings"
	"testing"
)

func TestAddComponentDuplicate(t *testing.T) {
	top := New("t")
	if _, err := top.AddComponent("a", KindCPU, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddComponent("a", KindGPU, 0); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if _, err := top.AddComponent("", KindGPU, 0); err == nil {
		t.Fatal("empty component ID accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	top := New("t")
	top.MustAddComponent("a", KindCPU, 0)
	top.MustAddComponent("b", KindLLC, 0)
	cases := []struct {
		name string
		spec LinkSpec
	}{
		{"missing endpoint", LinkSpec{A: "a", B: "zz", Class: ClassIntraSocket, Capacity: 1}},
		{"self link", LinkSpec{A: "a", B: "a", Class: ClassIntraSocket, Capacity: 1}},
		{"zero capacity", LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 0}},
		{"negative latency", LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 1, BaseLatency: -1}},
	}
	for _, c := range cases {
		if _, _, err := top.AddLink(c.spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, _, err := top.AddLink(LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 100, BaseLatency: 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := top.AddLink(LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 100}); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestLinkBidirectional(t *testing.T) {
	top := New("t")
	top.MustAddComponent("a", KindCPU, 0)
	top.MustAddComponent("b", KindLLC, 0)
	fwd, rev := top.MustAddLink(LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 100, BaseLatency: 7})
	f, r := top.Link(fwd), top.Link(rev)
	if f == nil || r == nil {
		t.Fatal("links not retrievable")
	}
	if f.Reverse != r.ID || r.Reverse != f.ID {
		t.Fatal("reverse pointers wrong")
	}
	if f.From != "a" || f.To != "b" || r.From != "b" || r.To != "a" {
		t.Fatal("directions wrong")
	}
	if len(top.Outgoing("a")) != 1 || len(top.Incoming("a")) != 1 {
		t.Fatal("adjacency wrong")
	}
}

func TestValidateDisconnected(t *testing.T) {
	top := New("t")
	top.MustAddComponent("a", KindCPU, 0)
	top.MustAddComponent("b", KindLLC, 0)
	top.MustAddComponent("c", KindGPU, 0)
	top.MustAddLink(LinkSpec{A: "a", B: "b", Class: ClassIntraSocket, Capacity: 1})
	err := top.Validate()
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Fatalf("disconnected graph validated: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("t").Validate(); err == nil {
		t.Fatal("empty topology validated")
	}
}

func TestPresetsValid(t *testing.T) {
	for name, build := range Presets {
		top := build()
		if err := top.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if top.Name != name {
			t.Errorf("%s: preset Name = %q", name, top.Name)
		}
	}
}

func TestPresetSizes(t *testing.T) {
	cases := []struct {
		build           func() *Topology
		gpus, nics      int
		minComp, minLnk int
	}{
		{MinimalHost, 1, 1, 10, 20},
		{TwoSocketServer, 2, 2, 25, 50},
		{DGXStyle, 8, 8, 40, 80},
	}
	for _, c := range cases {
		top := c.build()
		if got := len(top.ComponentsOfKind(KindGPU)); got != c.gpus {
			t.Errorf("%s: %d GPUs, want %d", top.Name, got, c.gpus)
		}
		if got := len(top.ComponentsOfKind(KindNIC)); got != c.nics {
			t.Errorf("%s: %d NICs, want %d", top.Name, got, c.nics)
		}
		if top.NumComponents() < c.minComp {
			t.Errorf("%s: only %d components", top.Name, top.NumComponents())
		}
		if top.NumLinks() < c.minLnk {
			t.Errorf("%s: only %d links", top.Name, top.NumLinks())
		}
	}
}

func TestPresetLinksInsideEnvelopes(t *testing.T) {
	// Per-link static parameters must sit inside (or below, for
	// channel-level intra-socket links) the Figure 1 envelopes.
	for name, build := range Presets {
		top := build()
		for _, l := range top.Links() {
			env := PaperEnvelope(l.Class)
			if l.BaseLatency < env.MinLatency || l.BaseLatency > env.MaxLatency {
				t.Errorf("%s: link %s latency %v outside [%v,%v]",
					name, l.ID, l.BaseLatency, env.MinLatency, env.MaxLatency)
			}
			if l.Capacity > env.MaxCapacity {
				t.Errorf("%s: link %s capacity %v above envelope max %v",
					name, l.ID, l.Capacity, env.MaxCapacity)
			}
		}
		// Representative links must be fully inside the envelope.
		for _, class := range []LinkClass{ClassInterSocket, ClassIntraSocket, ClassPCIeUp, ClassPCIeDown, ClassInterHost} {
			l, err := RepresentativeLink(top, class)
			if err != nil {
				if class == ClassInterSocket && name == "minimal" {
					continue // single-socket host has no UPI link
				}
				t.Errorf("%s: %v", name, err)
				continue
			}
			env := PaperEnvelope(class)
			if !env.Contains(l.Capacity, l.BaseLatency) {
				t.Errorf("%s: representative %s (%v, %v) outside envelope",
					name, l.ID, l.Capacity, l.BaseLatency)
			}
		}
	}
}

func TestAllLinkClassesPresent(t *testing.T) {
	top := MinimalHost()
	have := make(map[LinkClass]bool)
	for _, l := range top.Links() {
		have[l.Class] = true
	}
	for _, c := range []LinkClass{ClassIntraSocket, ClassPCIeUp, ClassPCIeDown, ClassInterHost} {
		if !have[c] {
			t.Errorf("minimal host missing class %v", c)
		}
	}
	top2 := TwoSocketServer()
	have2 := make(map[LinkClass]bool)
	for _, l := range top2.Links() {
		have2[l.Class] = true
	}
	if !have2[ClassInterSocket] {
		t.Error("two-socket missing inter-socket link")
	}
}

func TestConfigRegistry(t *testing.T) {
	top := TwoSocketServer()
	llc := top.Component("socket0.llc")
	if llc == nil {
		t.Fatal("socket0.llc missing")
	}
	if v, ok := llc.ConfigValue(ConfigDDIO); !ok || v != "on" {
		t.Fatalf("DDIO config = %q,%v; want on,true", v, ok)
	}
	rp := top.Component("socket0.rootport0")
	if v, _ := rp.ConfigValue(ConfigIOMMU); v != "passthrough" {
		t.Fatalf("IOMMU config = %q", v)
	}
	llc.SetConfig(ConfigDDIO, "off")
	if v, _ := llc.ConfigValue(ConfigDDIO); v != "off" {
		t.Fatal("SetConfig did not update")
	}
}

func TestEndpoints(t *testing.T) {
	top := MinimalHost()
	for _, c := range top.Endpoints() {
		if !c.Kind.IsEndpoint() {
			t.Errorf("%s listed as endpoint", c.ID)
		}
	}
	found := false
	for _, c := range top.Endpoints() {
		if c.ID == "nic0" {
			found = true
		}
	}
	if !found {
		t.Error("nic0 not in endpoints")
	}
}

func TestKindStringAndIsEndpoint(t *testing.T) {
	if KindGPU.String() != "gpu" || KindPCIeSwitch.String() != "pcieswitch" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty string")
	}
	if KindPCIeSwitch.IsEndpoint() || KindLLC.IsEndpoint() {
		t.Fatal("fabric kinds reported as endpoints")
	}
}

func TestRateHelpers(t *testing.T) {
	if GBps(1) != 1e9 {
		t.Fatal("GBps wrong")
	}
	if Gbps(8) != 1e9 {
		t.Fatal("Gbps wrong")
	}
	if MBps(1) != 1e6 {
		t.Fatal("MBps wrong")
	}
	if GBps(2).GBpsValue() != 2 {
		t.Fatal("GBpsValue wrong")
	}
	if Gbps(200).GbpsValue() != 200 {
		t.Fatal("GbpsValue wrong")
	}
	// 1 GB at 1 GB/s = 1 s.
	if d := GBps(1).TimeToSend(1e9); d != 1_000_000_000 {
		t.Fatalf("TimeToSend = %v", d)
	}
	if d := Rate(0).TimeToSend(1); d <= 0 {
		t.Fatal("zero-rate TimeToSend should be huge")
	}
}

func TestPaperEnvelopes(t *testing.T) {
	for c := ClassInterSocket; c <= ClassInterHost; c++ {
		env := PaperEnvelope(c)
		if env.MinCapacity >= env.MaxCapacity {
			t.Errorf("%v: capacity range inverted", c)
		}
		if env.MinLatency >= env.MaxLatency {
			t.Errorf("%v: latency range inverted", c)
		}
		if c.FigureRef() != int(c)+1 {
			t.Errorf("%v: figure ref wrong", c)
		}
	}
	env := PaperEnvelope(ClassInterSocket)
	if !env.Contains(GBps(40), 150) {
		t.Error("40GB/s,150ns should be inside inter-socket envelope")
	}
	if env.Contains(GBps(100), 150) {
		t.Error("100GB/s outside inter-socket capacity range")
	}
}

func TestDeterministicOrdering(t *testing.T) {
	a, b := TwoSocketServer(), TwoSocketServer()
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatal("nondeterministic link count")
	}
	for i := range la {
		if la[i].ID != lb[i].ID {
			t.Fatal("nondeterministic link ordering")
		}
	}
	ca, cb := a.Components(), b.Components()
	for i := range ca {
		if ca[i].ID != cb[i].ID {
			t.Fatal("nondeterministic component ordering")
		}
	}
}
