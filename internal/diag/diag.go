// Package diag provides the intra-host analogues of the inter-host
// debugging toolbox the paper calls for in §3.1: ping (pairwise
// latency/loss probing), traceroute (hop-by-hop path walk with per-hop
// latency attribution), perf (achievable-bandwidth probing), and sniff
// (transaction capture with filters) — the `ihdiag` subcommands of the
// same names.
//
// Each tool runs as an asynchronous session against a live fabric so
// it can be used inside a running simulation; the Run* convenience
// wrappers drive the engine to completion for standalone use (the
// cmd/ih* binaries).
package diag

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// PingOptions configures an ihdiag ping session.
type PingOptions struct {
	Count    int
	Size     int64 // probe payload bytes each way
	Interval simtime.Duration
	// Path optionally pins the probe path.
	Path topology.Path
}

// DefaultPingOptions sends ten 64-byte probes 10 us apart.
func DefaultPingOptions() PingOptions {
	return PingOptions{Count: 10, Size: 64, Interval: 10 * simtime.Microsecond}
}

// PingReport summarizes an ihdiag ping session.
type PingReport struct {
	Src, Dst           topology.CompID
	Sent, Lost         int
	Min, Avg, Max, P99 simtime.Duration
	RTTs               []simtime.Duration
}

func (r PingReport) String() string {
	return fmt.Sprintf("%s -> %s: %d sent, %d lost, rtt min/avg/p99/max = %v/%v/%v/%v",
		r.Src, r.Dst, r.Sent, r.Lost, r.Min, r.Avg, r.P99, r.Max)
}

// PingSession is an in-flight ihdiag ping.
type PingSession struct {
	fab      *fabric.Fabric
	opts     PingOptions
	src, dst topology.CompID
	report   PingReport
	received int
	done     bool
	onDone   func(PingReport)
}

// StartPing begins probing and returns the session. onDone (optional)
// fires when the last probe resolves.
func StartPing(fab *fabric.Fabric, src, dst topology.CompID, opts PingOptions, onDone func(PingReport)) (*PingSession, error) {
	if opts.Count <= 0 || opts.Size < 0 || opts.Interval < 0 {
		return nil, fmt.Errorf("diag: invalid ping options %+v", opts)
	}
	if fab.Topology().Component(src) == nil || fab.Topology().Component(dst) == nil {
		return nil, fmt.Errorf("diag: unknown endpoint %s or %s", src, dst)
	}
	s := &PingSession{fab: fab, opts: opts, src: src, dst: dst, onDone: onDone}
	s.report.Src, s.report.Dst = src, dst
	for i := 0; i < opts.Count; i++ {
		delay := simtime.Duration(i) * opts.Interval
		fab.Engine().After(delay, s.sendOne)
	}
	return s, nil
}

func (s *PingSession) sendOne() {
	s.report.Sent++
	err := s.fab.SendTransaction(fabric.TxOptions{
		Tenant: fabric.SystemTenant, Src: s.src, Dst: s.dst,
		Path: s.opts.Path, ReqBytes: s.opts.Size, RespBytes: s.opts.Size,
	}, s.onResult)
	if err != nil {
		s.onResult(fabric.TxRecord{Lost: true})
	}
}

func (s *PingSession) onResult(r fabric.TxRecord) {
	s.received++
	if r.Lost {
		s.report.Lost++
	} else {
		s.report.RTTs = append(s.report.RTTs, r.RTT)
	}
	if s.received == s.opts.Count {
		s.finalize()
	}
}

func (s *PingSession) finalize() {
	s.done = true
	rtts := s.report.RTTs
	if len(rtts) > 0 {
		sorted := append([]simtime.Duration(nil), rtts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.report.Min = sorted[0]
		s.report.Max = sorted[len(sorted)-1]
		var sum simtime.Duration
		for _, v := range sorted {
			sum += v
		}
		s.report.Avg = sum / simtime.Duration(len(sorted))
		s.report.P99 = sorted[(len(sorted)*99)/100]
	}
	if s.onDone != nil {
		s.onDone(s.report)
	}
}

// Done reports whether all probes have resolved.
func (s *PingSession) Done() bool { return s.done }

// Report returns the (possibly partial) report.
func (s *PingSession) Report() PingReport { return s.report }

// RunPing drives the engine until the session completes and returns
// the report. For standalone use only — do not call from inside an
// engine callback.
func RunPing(fab *fabric.Fabric, src, dst topology.CompID, opts PingOptions) (PingReport, error) {
	s, err := StartPing(fab, src, dst, opts, nil)
	if err != nil {
		return PingReport{}, err
	}
	e := fab.Engine()
	for !s.Done() && e.Pending() > 0 {
		e.Step()
	}
	if !s.Done() {
		return s.Report(), fmt.Errorf("diag: ping did not complete")
	}
	return s.Report(), nil
}
