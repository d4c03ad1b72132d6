// Package anomaly implements the paper's "platform for anomaly
// detection" (§3.1): devices on the intra-host network periodically
// send heartbeats to each other (the intra-host analogue of Pingmesh),
// a detector flags pairs whose heartbeats are lost or whose RTT
// inflates beyond a learned baseline, and a localizer ranks links by
// path-overlap voting to pinpoint the silently degraded component —
// the PCIe-switch failure scenario the paper uses as motivation.
package anomaly

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Pair is one heartbeat relation between two components.
type Pair struct {
	Src, Dst topology.CompID
}

func (p Pair) String() string { return string(p.Src) + "~" + string(p.Dst) }

// DefaultPairs returns the full mesh over the host's I/O devices and
// CPUs (GPUs, NICs, SSDs, FPGAs, CPU sockets), excluding the external
// node: the coverage a deployed heartbeat service would configure.
func DefaultPairs(topo *topology.Topology) []Pair {
	var devs []topology.CompID
	for _, c := range topo.Components() {
		switch c.Kind {
		case topology.KindGPU, topology.KindNIC, topology.KindSSD,
			topology.KindFPGA, topology.KindCPU:
			devs = append(devs, c.ID)
		}
	}
	var out []Pair
	for _, a := range devs {
		for _, b := range devs {
			if a != b {
				out = append(out, Pair{a, b})
			}
		}
	}
	return out
}

// Config tunes the platform.
type Config struct {
	// Period between heartbeat rounds.
	Period simtime.Duration
	// ProbeBytes sizes each heartbeat request (response is equal).
	ProbeBytes int64
	// CalibrationRounds learn the per-pair RTT baseline before
	// detection arms.
	CalibrationRounds int
	// LatencyFactor flags a heartbeat whose RTT exceeds baseline by
	// this multiple.
	LatencyFactor float64
	// ConsecutiveBad heartbeats on a pair trigger a detection.
	ConsecutiveBad int
	// SuspectThreshold is the minimum bad-traversal fraction for a
	// link to be reported as a suspect.
	SuspectThreshold float64
	// WindowRounds bounds the voting window.
	WindowRounds int
}

// DefaultConfig returns the settings used in experiments: 100 us
// heartbeats, 64-byte probes, 10 calibration rounds, 3x latency
// threshold, 3 consecutive bad probes, 0.8 suspicion threshold.
func DefaultConfig() Config {
	return Config{
		Period:            100 * simtime.Microsecond,
		ProbeBytes:        64,
		CalibrationRounds: 10,
		LatencyFactor:     3,
		ConsecutiveBad:    3,
		SuspectThreshold:  0.8,
		WindowRounds:      16,
	}
}

func (c Config) validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("anomaly: non-positive period")
	}
	if c.ProbeBytes < 0 {
		return fmt.Errorf("anomaly: negative probe size")
	}
	if c.CalibrationRounds <= 0 || c.ConsecutiveBad <= 0 || c.WindowRounds <= 0 {
		return fmt.Errorf("anomaly: rounds parameters must be positive")
	}
	if c.LatencyFactor <= 1 {
		return fmt.Errorf("anomaly: latency factor must exceed 1")
	}
	if c.SuspectThreshold <= 0 || c.SuspectThreshold > 1 {
		return fmt.Errorf("anomaly: suspect threshold outside (0,1]")
	}
	return nil
}

// Suspect is one link's localization verdict.
type Suspect struct {
	Link topology.LinkID
	// Score is the fraction of traversing heartbeats in the window
	// that were anomalous.
	Score float64
	// Traversals is the window's probe coverage of this link.
	Traversals int
}

// Detection is one anomaly incident.
type Detection struct {
	At simtime.Time
	// Pair whose heartbeats triggered the detection.
	Pair Pair
	// Lost is true when heartbeats were dropped (hard failure) rather
	// than slow (degradation).
	Lost bool
	// Suspects is the localization ranking at detection time,
	// highest score first.
	Suspects []Suspect
}

// pairState is the detector's per-pair memory.
type pairState struct {
	pair Pair
	path topology.Path
	// route is path resolved against the fabric, and done the probe
	// completion callback; both are bound once, in New, so a round
	// allocates neither.
	route *fabric.Route
	done  func(fabric.TxRecord)
	// windows are the vote windows of path's links in record order
	// (each hop's link, then its reverse), filled at the pair's first
	// vote.
	windows    []*linkWindow
	calSamples []simtime.Duration
	baseline   simtime.Duration
	consecBad  int
	alerted    bool
	lastRTT    simtime.Duration
	lastLost   bool
}

// linkWindow is a sliding window of traversal outcomes for one link.
type linkWindow struct {
	bad, total []int // per round-slot counters
}

// Platform runs the heartbeat mesh and localization.
type Platform struct {
	fab   *fabric.Fabric
	cfg   Config
	pairs []*pairState

	ticker *simtime.Ticker
	round  int
	slot   int
	links  map[topology.LinkID]*linkWindow
	// windows lists links' values in creation order, for the
	// per-round slot reset.
	windows    []*linkWindow
	detections []Detection
	probesSent uint64

	// Observability (nil when unattached).
	tracer      *obs.Tracer
	mProbes     *obs.Counter
	mRounds     *obs.Counter
	mDetections *obs.Counter
	mCleared    *obs.Counter
}

// SetObs attaches an observability substrate. Each heartbeat round
// emits one trace event (per-probe events would dominate the ring);
// every detection emits one carrying its top suspect.
func (p *Platform) SetObs(o *obs.Obs) {
	if o == nil {
		p.tracer, p.mProbes, p.mRounds, p.mDetections, p.mCleared = nil, nil, nil, nil, nil
		return
	}
	p.tracer = o.Tracer
	p.mProbes = o.Registry.Counter("ihnet_anomaly_probes_total",
		"Heartbeat probes sent across the mesh.")
	p.mRounds = o.Registry.Counter("ihnet_anomaly_rounds_total",
		"Completed heartbeat rounds.")
	p.mDetections = o.Registry.Counter("ihnet_anomaly_detections_total",
		"Anomaly incidents detected (lost or inflated heartbeats).")
	p.mCleared = o.Registry.Counter("ihnet_anomaly_cleared_total",
		"Alerted heartbeat pairs that returned to health.")
}

// New builds a platform probing the given pairs. Paths are resolved
// once at construction (heartbeat paths are pinned, like a real
// source-routed probe).
func New(fab *fabric.Fabric, pairs []Pair, cfg Config) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("anomaly: no pairs")
	}
	p := &Platform{fab: fab, cfg: cfg, links: make(map[topology.LinkID]*linkWindow)}
	for _, pr := range pairs {
		path, err := fab.Topology().ShortestPath(pr.Src, pr.Dst)
		if err != nil {
			return nil, fmt.Errorf("anomaly: pair %s: %w", pr, err)
		}
		route, err := fab.ResolveRoute(pr.Src, pr.Dst, path)
		if err != nil {
			return nil, fmt.Errorf("anomaly: pair %s: %w", pr, err)
		}
		ps := &pairState{pair: pr, path: path, route: route}
		ps.done = func(r fabric.TxRecord) { p.onResult(ps, r) }
		p.pairs = append(p.pairs, ps)
	}
	return p, nil
}

// Start begins heartbeat rounds.
func (p *Platform) Start() error {
	if p.ticker != nil {
		return fmt.Errorf("anomaly: already started")
	}
	p.ticker = p.fab.Engine().Every(p.cfg.Period, p.roundFn)
	return nil
}

// Stop halts heartbeats; history remains queryable.
func (p *Platform) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

// roundFn sends one heartbeat per pair and evaluates results as the
// callbacks arrive (probe RTTs are microseconds, far below the round
// period, so results land before the next round).
func (p *Platform) roundFn() {
	p.round++
	p.mRounds.Inc()
	p.mProbes.Add(uint64(len(p.pairs)))
	if p.tracer.Enabled() {
		p.tracer.Emit(obs.Event{
			Kind: obs.KindHeartbeat, Virtual: p.fab.Engine().Now(),
			Value: float64(len(p.pairs)),
		})
	}
	p.slot = (p.slot + 1) % p.cfg.WindowRounds
	for _, lw := range p.windows {
		lw.bad[p.slot] = 0
		lw.total[p.slot] = 0
	}
	for _, ps := range p.pairs {
		p.probesSent++
		err := p.fab.SendTransaction(fabric.TxOptions{
			Tenant:   fabric.SystemTenant,
			Route:    ps.route,
			ReqBytes: p.cfg.ProbeBytes, RespBytes: p.cfg.ProbeBytes,
		}, ps.done)
		if err != nil {
			// Treat an unroutable probe as a loss.
			p.onResult(ps, fabric.TxRecord{Lost: true})
		}
	}
}

// onResult scores one heartbeat outcome.
func (p *Platform) onResult(ps *pairState, r fabric.TxRecord) {
	ps.lastRTT, ps.lastLost = r.RTT, r.Lost
	inCalibration := p.round <= p.cfg.CalibrationRounds
	if inCalibration {
		if !r.Lost {
			ps.calSamples = append(ps.calSamples, r.RTT)
			var sum simtime.Duration
			for _, s := range ps.calSamples {
				sum += s
			}
			ps.baseline = sum / simtime.Duration(len(ps.calSamples))
		}
		return
	}
	bad := r.Lost
	if !bad && ps.baseline > 0 {
		bad = float64(r.RTT) > float64(ps.baseline)*p.cfg.LatencyFactor
	}
	if ps.windows == nil {
		ps.windows = make([]*linkWindow, 0, 2*ps.path.Hops())
		for _, l := range ps.path.Links {
			ps.windows = append(ps.windows, p.window(l.ID), p.window(l.Reverse))
		}
	}
	// The outcome counts on every link of the path, both directions:
	// the response traveled the reverse.
	for _, lw := range ps.windows {
		lw.total[p.slot]++
		if bad {
			lw.bad[p.slot]++
		}
	}
	if !bad {
		ps.consecBad = 0
		if ps.alerted {
			ps.alerted = false
			p.mCleared.Inc()
			if p.tracer.Enabled() {
				p.tracer.Emit(obs.Event{
					Kind: obs.KindAnomalyCleared, Virtual: p.fab.Engine().Now(),
					Subject: ps.pair.String(),
				})
			}
		}
		return
	}
	ps.consecBad++
	if ps.consecBad >= p.cfg.ConsecutiveBad && !ps.alerted {
		ps.alerted = true
		d := Detection{
			At:       p.fab.Engine().Now(),
			Pair:     ps.pair,
			Lost:     r.Lost,
			Suspects: p.Suspects(),
		}
		p.detections = append(p.detections, d)
		p.mDetections.Inc()
		if p.tracer.Enabled() {
			detail := "degraded"
			if d.Lost {
				detail = "lost"
			}
			if len(d.Suspects) > 0 {
				detail += "; top suspect " + string(d.Suspects[0].Link)
			}
			p.tracer.Emit(obs.Event{
				Kind: obs.KindAnomalyDetect, Virtual: d.At,
				Subject: d.Pair.String(), Detail: detail,
				Value: float64(len(d.Suspects)),
			})
		}
	}
}

// window returns the link's vote window, creating it on first use.
func (p *Platform) window(id topology.LinkID) *linkWindow {
	lw := p.links[id]
	if lw == nil {
		lw = &linkWindow{
			bad:   make([]int, p.cfg.WindowRounds),
			total: make([]int, p.cfg.WindowRounds),
		}
		p.links[id] = lw
		p.windows = append(p.windows, lw)
	}
	return lw
}

// Suspects returns the current localization ranking: links whose
// bad-traversal fraction meets the threshold, highest score first,
// ties broken by ID. Scoring covers only the most recent
// ConsecutiveBad rounds, so a fresh incident is not diluted by the
// healthy history before it; localization granularity is the
// undirected link, since a heartbeat response always traverses the
// reverse direction of its request.
func (p *Platform) Suspects() []Suspect {
	var out []Suspect
	ids := make([]string, 0, len(p.links))
	for id := range p.links {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	recent := p.cfg.ConsecutiveBad
	if recent > p.cfg.WindowRounds {
		recent = p.cfg.WindowRounds
	}
	for _, id := range ids {
		lw := p.links[topology.LinkID(id)]
		bad, total := 0, 0
		for off := 0; off < recent; off++ {
			i := (p.slot - off + p.cfg.WindowRounds) % p.cfg.WindowRounds
			bad += lw.bad[i]
			total += lw.total[i]
		}
		if total == 0 {
			continue
		}
		score := float64(bad) / float64(total)
		if score >= p.cfg.SuspectThreshold {
			out = append(out, Suspect{Link: topology.LinkID(id), Score: score, Traversals: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// DetectionCount returns the number of detections without copying the
// history — the remediation loop polls it every step.
func (p *Platform) DetectionCount() int { return len(p.detections) }

// Detections returns the incident history, oldest first.
func (p *Platform) Detections() []Detection {
	out := make([]Detection, len(p.detections))
	copy(out, p.detections)
	return out
}

// PairStat is one pair's current heartbeat state, for downstream
// diagnosis (e.g. the diagml classifier's RTT-inflation feature).
type PairStat struct {
	Pair     Pair
	Baseline simtime.Duration
	LastRTT  simtime.Duration
	LastLost bool
	Alerted  bool
}

// PairStats returns the per-pair heartbeat state in pair order.
func (p *Platform) PairStats() []PairStat {
	out := make([]PairStat, 0, len(p.pairs))
	for _, ps := range p.pairs {
		out = append(out, PairStat{
			Pair: ps.pair, Baseline: ps.baseline,
			LastRTT: ps.lastRTT, LastLost: ps.lastLost,
			Alerted: ps.alerted,
		})
	}
	return out
}

// ProbesSent returns the cumulative heartbeat count — the platform's
// own fabric footprint (each probe also consumes intra-host
// bandwidth, which is the Q2 trade-off).
func (p *Platform) ProbesSent() uint64 { return p.probesSent }

// Overhead reports the platform's own resource footprint: probe rate
// and the aggregate fabric bytes it injects per second of virtual time
// (request + response on every pair). This is the monitoring side of
// the §3.1 Q2 dilemma, quantified.
type Overhead struct {
	ProbesPerSecond float64
	BytesPerSecond  float64
}

// Overhead computes the platform's steady-state footprint from its
// configuration (probes are fixed-size and periodic, so this is exact
// once running).
func (p *Platform) Overhead() Overhead {
	perRound := float64(len(p.pairs))
	persec := perRound / p.cfg.Period.Seconds()
	return Overhead{
		ProbesPerSecond: persec,
		BytesPerSecond:  persec * float64(2*p.cfg.ProbeBytes),
	}
}

// Rounds returns the number of completed heartbeat rounds.
func (p *Platform) Rounds() int { return p.round }

// ConfigUsed returns the platform's configuration — harnesses derive
// detection deadlines (calibration rounds, period, consecutive-bad)
// from it.
func (p *Platform) ConfigUsed() Config { return p.cfg }

// CoversLink reports whether any heartbeat pair's pinned path
// traverses the link in either direction. A failure on an uncovered
// link is invisible to the mesh, so harnesses must not expect it to be
// localized.
func (p *Platform) CoversLink(id topology.LinkID) bool {
	for _, ps := range p.pairs {
		for _, l := range ps.path.Links {
			if l.ID == id || l.Reverse == id {
				return true
			}
		}
	}
	return false
}

// AlertedOnLink reports whether any currently alerted pair's pinned
// path traverses the link in either direction — the "sensor still
// sees the anomaly" half of the remediation loop's invariant-restored
// condition.
func (p *Platform) AlertedOnLink(id topology.LinkID) bool {
	for _, ps := range p.pairs {
		if !ps.alerted {
			continue
		}
		for _, l := range ps.path.Links {
			if l.ID == id || l.Reverse == id {
				return true
			}
		}
	}
	return false
}

// AlertedAttributableToLink reports whether some currently alerted,
// currently *lost* pair's pinned path traverses the link (either
// direction) and carries no other link the caller knows to be
// unhealthy. Two filters keep ambiguous evidence from implicating the
// link: latency-only alerts are excluded because inflated RTTs under
// multi-tenant load are indistinguishable from congestion (the caller
// should consult the fabric's link-health registers for degradation),
// and an alerted pair crossing a different currently-unhealthy link is
// explained by that fault — without this, a shared upstream link would
// be held suspect for as long as any downstream fault stays open.
func (p *Platform) AlertedAttributableToLink(id topology.LinkID, otherUnhealthy func(topology.LinkID) bool) bool {
	for _, ps := range p.pairs {
		if !ps.alerted || !ps.lastLost {
			continue
		}
		onPath, explained := false, false
		for _, l := range ps.path.Links {
			if l.ID == id || l.Reverse == id {
				onPath = true
				continue
			}
			if otherUnhealthy(l.ID) || otherUnhealthy(l.Reverse) {
				explained = true
			}
		}
		if onPath && !explained {
			return true
		}
	}
	return false
}

// Alerted reports whether any heartbeat pair is currently alerted.
func (p *Platform) Alerted() bool {
	for _, ps := range p.pairs {
		if ps.alerted {
			return true
		}
	}
	return false
}
