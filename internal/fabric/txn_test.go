package fabric

import (
	"slices"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestTransactionRTTIdle(t *testing.T) {
	f, e, p := newLineFabric()
	var rec TxRecord
	err := f.SendTransaction(TxOptions{
		Tenant: "t", Src: "a", Dst: "c", ReqBytes: 0, RespBytes: 0,
	}, func(r TxRecord) { rec = r })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// One-way, zero-size: just the 20ns of base latency.
	if rec.RTT != 20 {
		t.Fatalf("one-way RTT %v, want 20", rec.RTT)
	}
	if rec.Lost {
		t.Fatal("lost on healthy path")
	}
	if rec.Src != "a" || rec.Dst != "c" || rec.Path.Hops() != p.Hops() {
		t.Fatalf("record fields wrong: %+v", rec)
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	f, e, _ := newLineFabric()
	var rec TxRecord
	err := f.SendTransaction(TxOptions{
		Tenant: "t", Src: "a", Dst: "c", ReqBytes: 0, RespBytes: 1,
	}, func(r TxRecord) { rec = r })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Round trip: 20ns out + 20ns back, plus serialization of 1 byte.
	if rec.RTT < 40 {
		t.Fatalf("round-trip RTT %v, want >= 40", rec.RTT)
	}
	st := f.TxStats()
	if st.Sent != 1 || st.Completed != 1 || st.Lost != 0 {
		t.Fatalf("tx stats %+v", st)
	}
}

func TestTransactionLostOnFailedLink(t *testing.T) {
	f, e, p := newLineFabric()
	if err := f.FailLink(p.Links[1].ID); err != nil {
		t.Fatal(err)
	}
	var rec TxRecord
	err := f.SendTransaction(TxOptions{
		Tenant: "t", Src: "a", Dst: "c", RespBytes: 1,
	}, func(r TxRecord) { rec = r })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !rec.Lost {
		t.Fatal("transaction crossed failed link")
	}
	if rec.LostAt != p.Links[1].ID {
		t.Fatalf("lost at %s, want %s", rec.LostAt, p.Links[1].ID)
	}
	if f.TxStats().Lost != 1 {
		t.Fatalf("lost counter %d", f.TxStats().Lost)
	}
}

func TestTransactionLostOnReversePath(t *testing.T) {
	f, e, p := newLineFabric()
	// Fail only the reverse direction of hop 0 (b->a).
	rev := p.Links[0].Reverse
	if err := f.FailLink(rev); err != nil {
		t.Fatal(err)
	}
	var rec TxRecord
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c", RespBytes: 1},
		func(r TxRecord) { rec = r })
	e.Run()
	if !rec.Lost || rec.LostAt != rev {
		t.Fatalf("reverse-path loss not detected: %+v", rec)
	}
}

func TestTransactionCongestionInflation(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := lineTopo()
	f := New(topo, e, Config{QueueingFactor: 0.5, MaxInflation: 40, PCIeEfficiency: 1})
	p, _ := topo.ShortestPath("a", "c")
	var idle, loaded simtime.Duration
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c"},
		func(r TxRecord) { idle = r.RTT })
	e.Run()
	_ = f.AddFlow(&Flow{Tenant: "bg", Path: p}) // saturate
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c"},
		func(r TxRecord) { loaded = r.RTT })
	e.Run()
	if loaded <= idle {
		t.Fatalf("congested RTT %v not above idle %v", loaded, idle)
	}
}

func TestTransactionPinnedPath(t *testing.T) {
	f, e, p := newLineFabric()
	var rec TxRecord
	err := f.SendTransaction(TxOptions{
		Tenant: "t", Src: "a", Dst: "c", Path: p,
	}, func(r TxRecord) { rec = r })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if rec.Lost {
		t.Fatal("pinned-path tx lost")
	}
	// Mismatched pin rejected.
	err = f.SendTransaction(TxOptions{Tenant: "t", Src: "c", Dst: "a", Path: p}, nil)
	if err == nil {
		t.Fatal("mismatched pinned path accepted")
	}
}

func TestTransactionValidation(t *testing.T) {
	f, _, _ := newLineFabric()
	if err := f.SendTransaction(TxOptions{Src: "a", Dst: "c", ReqBytes: -1}, nil); err == nil {
		t.Fatal("negative request size accepted")
	}
	if err := f.SendTransaction(TxOptions{Src: "a", Dst: "nope"}, nil); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestSniffer(t *testing.T) {
	f, e, _ := newLineFabric()
	var captured []TxRecord
	detach := f.AttachSniffer(func(r TxRecord) { captured = append(captured, r) })
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c"}, nil)
	e.Run()
	if len(captured) != 1 {
		t.Fatalf("sniffer captured %d records, want 1", len(captured))
	}
	detach()
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c"}, nil)
	e.Run()
	if len(captured) != 1 {
		t.Fatal("detached sniffer still capturing")
	}
}

func TestInterruptModerationDelaysInboundTraffic(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := topology.TwoSocketServer()
	f := New(topo, e, DefaultConfig())
	measure := func() simtime.Duration {
		var rtt simtime.Duration
		_ = f.SendTransaction(TxOptions{
			Tenant: "t", Src: "external0", Dst: "socket0.dimm0_0", RespBytes: 64,
		}, func(r TxRecord) { rtt = r.RTT })
		e.Run()
		return rtt
	}
	base := measure()
	// Turn on 50us moderation at nic0: inbound requests are delayed;
	// the response leaves through nic0 outbound and is unaffected.
	topo.Component("nic0").SetConfig(topology.ConfigIntModeration, "50")
	moderated := measure()
	want := base + 50*simtime.Microsecond
	if moderated != want {
		t.Fatalf("moderated RTT %v, want %v", moderated, want)
	}
	// Intra-host traffic never pays moderation.
	var intra simtime.Duration
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "gpu0", Dst: "nic0", RespBytes: 64},
		func(r TxRecord) { intra = r.RTT })
	e.Run()
	if intra >= 50*simtime.Microsecond {
		t.Fatalf("intra-host tx paid moderation: %v", intra)
	}
	// Malformed config is ignored.
	topo.Component("nic0").SetConfig(topology.ConfigIntModeration, "5x")
	if got := measure(); got != base {
		t.Fatalf("malformed moderation applied: %v vs %v", got, base)
	}
	// So is a period out of range: these once overflowed into a
	// negative delay (a panic) and a wrapped 55,660-hour RTT.
	for _, v := range []string{"10000000000000000", "99999999999999999999", "1000001"} {
		topo.Component("nic0").SetConfig(topology.ConfigIntModeration, v)
		if got := measure(); got != base {
			t.Fatalf("out-of-range moderation %q applied: %v vs %v", v, got, base)
		}
	}
	// The largest period in range still applies.
	topo.Component("nic0").SetConfig(topology.ConfigIntModeration, "1000000")
	if got, want := measure(), base+simtime.Second; got != want {
		t.Fatalf("1s moderation RTT %v, want %v", got, want)
	}
}

func TestSerializationDominatesLargeTransfer(t *testing.T) {
	f, e, _ := newLineFabric()
	var small, large simtime.Duration
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c", ReqBytes: 1},
		func(r TxRecord) { small = r.RTT })
	_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c", ReqBytes: 1000},
		func(r TxRecord) { large = r.RTT })
	e.Run()
	if large <= small {
		t.Fatalf("1000B RTT %v not above 1B RTT %v", large, small)
	}
}

func TestSnifferDetachRemovesEntry(t *testing.T) {
	f, e, _ := newLineFabric()
	var first, last []uint64
	f.AttachSniffer(func(r TxRecord) { first = append(first, r.ID) })
	for i := 0; i < 1000; i++ {
		detach := f.AttachSniffer(func(TxRecord) { t.Fatal("detached sniffer called") })
		detach()
		detach() // a second detach is a no-op
	}
	if len(f.sniffers) != 1 {
		t.Fatalf("%d sniffers attached after 1000 attach/detach cycles, want 1", len(f.sniffers))
	}
	// A sniffer detaching itself from inside a delivery leaves the rest
	// of that delivery's walk intact.
	var selfDetach func()
	var mid []uint64
	selfDetach = f.AttachSniffer(func(r TxRecord) { mid = append(mid, r.ID); selfDetach() })
	f.AttachSniffer(func(r TxRecord) { last = append(last, r.ID) })
	for i := 0; i < 3; i++ {
		_ = f.SendTransaction(TxOptions{Tenant: "t", Src: "a", Dst: "c"}, nil)
	}
	e.Run()
	if !slices.Equal(first, []uint64{1, 2, 3}) || !slices.Equal(last, []uint64{1, 2, 3}) || !slices.Equal(mid, []uint64{1}) {
		t.Fatalf("sniffers saw first %v, last %v, self-detaching %v", first, last, mid)
	}
}
