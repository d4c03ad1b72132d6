package diag

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Hop is one step of an ihdiag traceroute: the component reached, the link used,
// and latency attribution.
type Hop struct {
	Index int
	Link  topology.LinkID
	To    topology.CompID
	// Cumulative is the round-trip time to this hop.
	Cumulative simtime.Duration
	// HopLatency is the incremental RTT attributed to this hop
	// (difference of consecutive cumulative probes; can absorb
	// congestion jitter).
	HopLatency simtime.Duration
	// Lost marks probes to this hop that did not return.
	Lost bool
}

// TraceReport is an ihdiag traceroute result: per-hop latency along the current
// path from Src to Dst, the tool an operator reaches for when a path
// is slow and the question is "which hop?".
type TraceReport struct {
	Src, Dst topology.CompID
	Path     topology.Path
	Hops     []Hop
}

func (r TraceReport) String() string {
	s := fmt.Sprintf("trace %s -> %s (%d hops)\n", r.Src, r.Dst, len(r.Hops))
	for _, h := range r.Hops {
		status := ""
		if h.Lost {
			status = "  LOST"
		}
		s += fmt.Sprintf("  %2d  %-40s rtt=%-12v hop=%-12v%s\n",
			h.Index+1, h.Link, h.Cumulative, h.HopLatency, status)
	}
	return s
}

// TraceSession probes each path prefix in turn.
type TraceSession struct {
	fab    *fabric.Fabric
	size   int64
	report TraceReport
	next   int
	done   bool
	onDone func(TraceReport)
}

// StartTrace begins an ihdiag traceroute from src to dst along the current
// shortest path, probing hop 1, then hops 1-2, and so on, with
// probeSize bytes each way.
func StartTrace(fab *fabric.Fabric, src, dst topology.CompID, probeSize int64, onDone func(TraceReport)) (*TraceSession, error) {
	if probeSize < 0 {
		return nil, fmt.Errorf("diag: negative probe size")
	}
	path, err := fab.Topology().ShortestPath(src, dst)
	if err != nil {
		return nil, err
	}
	s := &TraceSession{fab: fab, size: probeSize, onDone: onDone}
	s.report = TraceReport{Src: src, Dst: dst, Path: path}
	s.probeNext()
	return s, nil
}

func (s *TraceSession) probeNext() {
	if s.next >= s.report.Path.Hops() {
		s.done = true
		if s.onDone != nil {
			s.onDone(s.report)
		}
		return
	}
	prefix := topology.Path{Links: s.report.Path.Links[:s.next+1]}
	hopIdx := s.next
	err := s.fab.SendTransaction(fabric.TxOptions{
		Tenant: fabric.SystemTenant,
		Src:    prefix.Src(), Dst: prefix.Dst(),
		Path:     prefix,
		ReqBytes: s.size, RespBytes: s.size,
	}, func(r fabric.TxRecord) {
		h := Hop{
			Index:      hopIdx,
			Link:       s.report.Path.Links[hopIdx].ID,
			To:         s.report.Path.Links[hopIdx].To,
			Cumulative: r.RTT,
			Lost:       r.Lost,
		}
		if hopIdx == 0 {
			h.HopLatency = r.RTT
		} else {
			prev := s.report.Hops[hopIdx-1]
			if !prev.Lost && !r.Lost {
				h.HopLatency = r.RTT - prev.Cumulative
				if h.HopLatency < 0 {
					h.HopLatency = 0
				}
			}
		}
		s.report.Hops = append(s.report.Hops, h)
		s.next++
		s.probeNext()
	})
	if err != nil {
		// Record the hop as lost and continue.
		s.report.Hops = append(s.report.Hops, Hop{
			Index: hopIdx,
			Link:  s.report.Path.Links[hopIdx].ID,
			To:    s.report.Path.Links[hopIdx].To,
			Lost:  true,
		})
		s.next++
		s.probeNext()
	}
}

// Done reports whether the trace finished.
func (s *TraceSession) Done() bool { return s.done }

// Report returns the (possibly partial) trace.
func (s *TraceSession) Report() TraceReport { return s.report }

// RunTrace drives the engine until the trace completes. Standalone
// use only.
func RunTrace(fab *fabric.Fabric, src, dst topology.CompID, probeSize int64) (TraceReport, error) {
	s, err := StartTrace(fab, src, dst, probeSize, nil)
	if err != nil {
		return TraceReport{}, err
	}
	e := fab.Engine()
	for !s.Done() && e.Pending() > 0 {
		e.Step()
	}
	if !s.Done() {
		return s.Report(), fmt.Errorf("diag: trace did not complete")
	}
	return s.Report(), nil
}
