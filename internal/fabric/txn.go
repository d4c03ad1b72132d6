package fabric

import (
	"fmt"
	"slices"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// TxOptions describes a request/response transaction to inject, such
// as a DMA read, an RDMA verb, a heartbeat or a diagnostic probe.
type TxOptions struct {
	Tenant TenantID
	Src    topology.CompID
	Dst    topology.CompID
	// Path optionally pins the forward path; when empty the current
	// shortest path is used. The response returns along the reverse.
	Path topology.Path
	// Route optionally carries a route resolved once by ResolveRoute,
	// for a sender that repeats the same transaction (a heartbeat).
	// When set, Src, Dst and Path are taken from it and not checked
	// again.
	Route *Route
	// ReqBytes and RespBytes size the two directions. A probe with
	// RespBytes == 0 is one-way (no response hop).
	ReqBytes  int64
	RespBytes int64
}

// TxRecord is the outcome of a transaction, delivered to the sender's
// callback and to any attached sniffers.
type TxRecord struct {
	ID        uint64
	Tenant    TenantID
	Src, Dst  topology.CompID
	Path      topology.Path
	ReqBytes  int64
	RespBytes int64
	Sent      simtime.Time
	Done      simtime.Time
	RTT       simtime.Duration
	Lost      bool
	// LostAt is the directed link that dropped the transaction when
	// Lost is true.
	LostAt topology.LinkID
}

// TransactionStats aggregates transaction outcomes fabric-wide.
type TransactionStats struct {
	Sent, Completed, Lost uint64
}

// TxStats returns cumulative transaction counters.
func (f *Fabric) TxStats() TransactionStats { return f.txStats }

// AttachSniffer registers a callback receiving a copy of every
// completed or lost transaction record — the capture hook behind
// ihdiag sniff. It returns a detach function; detaching removes the
// sniffer, keeps the others in order, and a second call is a no-op.
func (f *Fabric) AttachSniffer(fn func(TxRecord)) func() {
	s := &fn
	f.sniffers = append(f.sniffers, s)
	return func() {
		if i := slices.Index(f.sniffers, s); i >= 0 {
			// A fresh array: a delivery ranging over the old one is
			// not disturbed by a sniffer detaching mid-walk.
			f.sniffers = slices.Concat(f.sniffers[:i], f.sniffers[i+1:])
		}
	}
}

// Route is a transaction path resolved against the fabric: the forward
// and reverse link states hop by hop. Link states live as long as the
// fabric, so a route resolved once stays valid for every later send; a
// heartbeat pair keeps one.
type Route struct {
	src, dst topology.CompID
	path     topology.Path
	fwd, rev []*linkState
	memo     routeMemo
}

// routeMemo is a route's last send outcome. It stays valid for sends
// of the same sizes while the fabric's latGen and the topology's
// ConfigGen are unchanged: every input of traverse is a link's
// currentRate, capacity, extraLatency or failed flag (latGen), or the
// configuration of a root port or NIC on the route (ConfigGen).
type routeMemo struct {
	valid          bool
	latGen, cfgGen uint64
	reqBytes       int64
	respBytes      int64
	lat            simtime.Duration
	lost           bool
	lostAt         topology.LinkID
}

// ResolveRoute resolves a transaction's path once: the pinned path
// when given (its endpoints must match src and dst), else the current
// shortest path. Pass the result in TxOptions.Route to repeat the
// transaction without resolving it again.
func (f *Fabric) ResolveRoute(src, dst topology.CompID, path topology.Path) (*Route, error) {
	r := &Route{}
	if err := f.resolveRoute(r, src, dst, path); err != nil {
		return nil, err
	}
	return r, nil
}

// resolveRoute fills r in place, reusing its slices.
func (f *Fabric) resolveRoute(r *Route, src, dst topology.CompID, path topology.Path) error {
	if path.Hops() == 0 {
		p, err := f.topo.ShortestPath(src, dst)
		if err != nil {
			return err
		}
		path = p
	} else if path.Src() != src || path.Dst() != dst {
		return fmt.Errorf("fabric: pinned path endpoints %s->%s do not match %s->%s",
			path.Src(), path.Dst(), src, dst)
	}
	n := path.Hops()
	r.src, r.dst, r.path = src, dst, path
	r.memo.valid = false
	r.fwd = slices.Grow(r.fwd[:0], n)[:n]
	r.rev = slices.Grow(r.rev[:0], n)[:n]
	for i, l := range path.Links {
		r.fwd[i] = f.links[l.ID]
		r.rev[n-1-i] = f.links[l.Reverse]
	}
	return nil
}

// txn is one in-flight transaction: its record and callback, held
// from send to delivery and then returned to the fabric's free list.
type txn struct {
	f   *Fabric
	rec TxRecord
	cb  func(TxRecord)
	// fire is t.deliver, bound once when the txn is first allocated,
	// so scheduling a delivery allocates no closure.
	fire func()
}

// newTxn takes a transaction from the free list, allocating one only
// when every earlier one is still in flight.
func (f *Fabric) newTxn() *txn {
	if n := len(f.txFree); n > 0 {
		t := f.txFree[n-1]
		f.txFree = f.txFree[:n-1]
		return t
	}
	t := &txn{f: f}
	t.fire = t.deliver
	return t
}

// deliver completes the transaction at its (virtual) completion or
// loss time. The record is copied out once and the txn is back on the
// free list before any callback runs, so a callback may send again;
// the next send overwrites every field of the stale record.
func (t *txn) deliver() {
	f, cb := t.f, t.cb
	t.rec.Done = f.engine.Now()
	t.rec.RTT = t.rec.Done.Sub(t.rec.Sent)
	r := t.rec
	t.cb = nil
	f.txFree = append(f.txFree, t)
	if r.Lost {
		f.txStats.Lost++
		if f.met != nil {
			f.met.txLost.Inc()
		}
	} else {
		f.txStats.Completed++
		if f.met != nil {
			f.met.txCompleted.Inc()
		}
	}
	for _, s := range f.sniffers {
		(*s)(r)
	}
	if cb != nil {
		cb(r)
	}
}

// SendTransaction injects a transaction and schedules cb with its
// outcome at the (virtual) completion or loss time. The latency model
// is flow-level: per-hop base latency inflated by current utilization,
// plus serialization of the payload at the path's bottleneck capacity,
// in each direction. A transaction traversing a failed link is lost at
// the failing hop.
func (f *Fabric) SendTransaction(opts TxOptions, cb func(TxRecord)) error {
	if opts.ReqBytes < 0 || opts.RespBytes < 0 {
		return fmt.Errorf("fabric: negative transaction size")
	}
	rt := opts.Route
	if rt == nil {
		// Resolve into the fabric's scratch route, taken off the
		// fabric for the send: recomputeIfDirty fires completion
		// callbacks, and a send nested in one must not overwrite it.
		rt = f.txRoute
		f.txRoute = nil
		if rt == nil {
			rt = new(Route)
		}
		if err := f.resolveRoute(rt, opts.Src, opts.Dst, opts.Path); err != nil {
			f.txRoute = rt
			return err
		}
	}
	f.recomputeIfDirty()
	f.txStats.Sent++
	if f.met != nil {
		f.met.txSent.Inc()
	}
	f.nextID++
	m := f.outcome(rt, opts.ReqBytes, opts.RespBytes)
	t := f.newTxn()
	t.cb = cb
	// Field by field: deliver sets Done and RTT, the rest is here.
	r := &t.rec
	r.ID, r.Tenant = f.nextID, opts.Tenant
	r.Src, r.Dst, r.Path = rt.src, rt.dst, rt.path
	r.ReqBytes, r.RespBytes = opts.ReqBytes, opts.RespBytes
	r.Sent = f.engine.Now()
	r.Lost, r.LostAt = m.lost, m.lostAt
	f.engine.After(m.lat, t.fire)
	if opts.Route == nil {
		f.txRoute = rt
	}
	return nil
}

// outcome returns the route's send outcome for the given sizes at
// current conditions, from its memo when nothing it depends on has
// moved since the memo was filled (see routeMemo).
func (f *Fabric) outcome(rt *Route, reqBytes, respBytes int64) *routeMemo {
	m := &rt.memo
	cfgGen := f.topo.ConfigGen()
	if m.valid && m.latGen == f.latGen && m.cfgGen == cfgGen &&
		m.reqBytes == reqBytes && m.respBytes == respBytes {
		return m
	}
	// Walk the forward path accumulating latency until delivery or a
	// failed hop.
	lat, at := f.traverse(rt.fwd, reqBytes)
	lost := at >= 0
	var lostAt topology.LinkID
	if lost {
		lostAt = rt.path.Links[at].ID
	} else if respBytes != 0 || rt.src == rt.dst {
		// Response travels the reverse path; evaluate its hops at
		// send time (flow-level approximation: utilization is
		// piecewise constant between recomputations).
		revLat, revAt := f.traverse(rt.rev, respBytes)
		lat += revLat
		if lost = revAt >= 0; lost {
			// Reverse hop j runs back over forward hop n-1-j.
			lostAt = rt.path.Links[len(rt.rev)-1-revAt].Reverse
		}
	}
	*m = routeMemo{
		valid: true, latGen: f.latGen, cfgGen: cfgGen,
		reqBytes: reqBytes, respBytes: respBytes,
		lat: lat, lost: lost, lostAt: lostAt,
	}
	return m
}

// traverse returns the one-way latency along a resolved path's link
// states for a payload of the given size at current conditions, and
// -1. When a failed link is encountered it returns the latency up to
// that hop and the hop's index.
//
// Interrupt moderation (Figure 1's configuration box) is applied where
// it happens on real hosts: when inter-host traffic enters a NIC whose
// ConfigIntModeration is set, delivery is delayed by the moderation
// period — the batching delay the NIC imposes before raising the
// completion interrupt.
func (f *Fabric) traverse(links []*linkState, bytes int64) (simtime.Duration, int) {
	var lat simtime.Duration
	bottleneck := topology.Rate(0)
	for i, ls := range links {
		if ls == nil || ls.failed {
			return lat, i
		}
		lat += f.hopLatency(ls)
		if ls.moderatingNIC != nil {
			lat += moderationDelay(ls.moderatingNIC)
		}
		avail := ls.capacity - ls.currentRate
		if avail < ls.capacity/100 {
			avail = ls.capacity / 100 // probes always trickle through
		}
		if i == 0 || avail < bottleneck {
			bottleneck = avail
		}
	}
	if bytes > 0 && bottleneck > 0 {
		lat += bottleneck.TimeToSend(bytes)
	}
	return lat, -1
}

// maxModerationUS bounds the interrupt-moderation period: real NICs
// moderate for microseconds to a few milliseconds, and a period this
// long already holds each inbound completion for a full second.
const maxModerationUS = 1_000_000

// moderationDelay parses a NIC's interrupt-moderation config
// ("int_moderation_us") into a delivery delay. Unset or malformed
// values, including periods above maxModerationUS, mean no moderation.
func moderationDelay(nic *topology.Component) simtime.Duration {
	v, ok := nic.ConfigValue(topology.ConfigIntModeration)
	if !ok {
		return 0
	}
	us := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0
		}
		if us = us*10 + int(c-'0'); us > maxModerationUS {
			return 0
		}
	}
	return simtime.Duration(us) * simtime.Microsecond
}
