package fabric

import (
	"fmt"

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
// ihdiag sniff. It returns a detach function.
func (f *Fabric) AttachSniffer(fn func(TxRecord)) func() {
	f.sniffers = append(f.sniffers, fn)
	idx := len(f.sniffers) - 1
	return func() { f.sniffers[idx] = nil }
}

func (f *Fabric) emitRecord(r TxRecord) {
	for _, s := range f.sniffers {
		if s != nil {
			s(r)
		}
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
	path := opts.Path
	if path.Hops() == 0 {
		p, err := f.topo.ShortestPath(opts.Src, opts.Dst)
		if err != nil {
			return err
		}
		path = p
	} else {
		if path.Src() != opts.Src || path.Dst() != opts.Dst {
			return fmt.Errorf("fabric: pinned path endpoints %s->%s do not match %s->%s",
				path.Src(), path.Dst(), opts.Src, opts.Dst)
		}
	}
	f.recomputeIfDirty()
	f.txStats.Sent++
	if f.met != nil {
		f.met.txSent.Inc()
	}
	f.nextID++
	rec := TxRecord{
		ID: f.nextID, Tenant: opts.Tenant,
		Src: opts.Src, Dst: opts.Dst, Path: path,
		ReqBytes: opts.ReqBytes, RespBytes: opts.RespBytes,
		Sent: f.engine.Now(),
	}

	deliver := func(r TxRecord) {
		r.Done = f.engine.Now()
		r.RTT = r.Done.Sub(r.Sent)
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
		f.emitRecord(r)
		if cb != nil {
			cb(r)
		}
	}

	// Walk the forward path accumulating latency until delivery or a
	// failed hop.
	fwdLat, failedAt, ok := f.traverse(path, opts.ReqBytes)
	if !ok {
		f.engine.After(fwdLat, func() {
			rec.Lost = true
			rec.LostAt = failedAt
			deliver(rec)
		})
		return nil
	}
	if opts.RespBytes == 0 && rec.Src != rec.Dst {
		f.engine.After(fwdLat, func() { deliver(rec) })
		return nil
	}
	// Response travels the reverse path; evaluate its hops at send
	// time (flow-level approximation: utilization is piecewise
	// constant between recomputations).
	rev := reversePath(f, path)
	revLat, revFailedAt, revOK := f.traverse(rev, opts.RespBytes)
	total := fwdLat + revLat
	f.engine.After(total, func() {
		if !revOK {
			rec.Lost = true
			rec.LostAt = revFailedAt
		}
		deliver(rec)
	})
	return nil
}

// traverse returns the one-way latency along path for a payload of the
// given size at current conditions. When a failed link is encountered
// it returns the latency up to that hop, the failing link, and false.
//
// Interrupt moderation (Figure 1's configuration box) is applied where
// it happens on real hosts: when inter-host traffic enters a NIC whose
// ConfigIntModeration is set, delivery is delayed by the moderation
// period — the batching delay the NIC imposes before raising the
// completion interrupt.
func (f *Fabric) traverse(path topology.Path, bytes int64) (simtime.Duration, topology.LinkID, bool) {
	var lat simtime.Duration
	bottleneck := topology.Rate(0)
	for i, l := range path.Links {
		ls := f.links[l.ID]
		if ls == nil {
			return lat, l.ID, false
		}
		if ls.failed {
			return lat, l.ID, false
		}
		lat += f.hopLatency(ls)
		if l.Class == topology.ClassInterHost {
			if nic := f.topo.Component(l.To); nic != nil && nic.Kind == topology.KindNIC {
				lat += moderationDelay(nic)
			}
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
	return lat, "", true
}

// moderationDelay parses a NIC's interrupt-moderation config
// ("int_moderation_us") into a delivery delay. Unset or malformed
// values mean no moderation.
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
		us = us*10 + int(c-'0')
	}
	return simtime.Duration(us) * simtime.Microsecond
}

// reversePath maps each link of p to its reverse, in opposite order.
func reversePath(f *Fabric, p topology.Path) topology.Path {
	links := make([]*topology.Link, p.Hops())
	for i, l := range p.Links {
		links[p.Hops()-1-i] = f.topo.Link(l.Reverse)
	}
	return topology.Path{Links: links}
}
