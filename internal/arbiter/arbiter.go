// Package arbiter implements the paper's dynamic resource arbiter
// (§3.2): it turns the scheduler's reservations into per-(link,tenant)
// rate caps on the fabric — the unified software shim layer the paper
// suggests as the enforcement point (§3.2 Q2) — and re-adjusts them at
// microsecond cadence as tenants come and go.
//
// Two modes answer the §3.2 Q1 work-conservation question
// empirically:
//
//   - Strict: reserved tenants are capped exactly at their guarantee
//     and bystanders split the leftover. Guarantees always hold, but
//     idle reserved bandwidth is wasted.
//   - WorkConserving: each adjustment tick measures actual usage and
//     lends idle bandwidth to whoever can use it, clawing it back
//     toward guarantees as reserved demand returns (ElasticSwitch-
//     style guarantee-then-borrow).
package arbiter

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/resmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Mode selects the arbitration policy.
type Mode string

// Arbitration modes.
const (
	Strict         Mode = "strict"
	WorkConserving Mode = "work-conserving"
)

// Config tunes the arbiter.
type Config struct {
	Mode Mode
	// AdjustPeriod is the cadence of the re-arbitration loop. The
	// paper's Q3 demands this fit in microseconds.
	AdjustPeriod simtime.Duration
	// BorrowFraction is how much of the measured slack a tenant may
	// borrow per tick in work-conserving mode (damping factor).
	BorrowFraction float64
}

// DefaultConfig returns a 50 us work-conserving arbiter.
func DefaultConfig() Config {
	return Config{Mode: WorkConserving, AdjustPeriod: 50 * simtime.Microsecond, BorrowFraction: 0.9}
}

func (c Config) validate() error {
	switch c.Mode {
	case Strict, WorkConserving:
	default:
		return fmt.Errorf("arbiter: unknown mode %q", c.Mode)
	}
	if c.AdjustPeriod <= 0 {
		return fmt.Errorf("arbiter: non-positive adjust period")
	}
	if c.BorrowFraction < 0 || c.BorrowFraction > 1 {
		return fmt.Errorf("arbiter: borrow fraction outside [0,1]")
	}
	return nil
}

// Arbiter enforces reservations on one fabric.
type Arbiter struct {
	fab *fabric.Fabric
	cfg Config

	// guarantees maps tenant -> per-link reserved rates.
	guarantees map[fabric.TenantID]resmodel.Reservation
	// tenants lists the keys of guarantees, sorted. Install and Remove
	// keep it, and per link, reserved, current.
	tenants []fabric.TenantID
	// reserved holds each link's guaranteed tenants, indexed like
	// links.
	reserved []linkGuarantees
	// installed holds, per link (indexed like links) and sorted by
	// tenant, every cap the last pass set, so stale caps are cleared
	// when guarantees or tenants go away. The rate is the cap itself
	// (work-conserving state). desired is the next pass's buffer; the
	// two swap at the end of each pass.
	installed [][]tenantCap
	desired   [][]tenantCap
	// Per-pass scratch: the tenants a link's caps go to (guaranteed
	// first, then bystanders), the link's flow tenants, and the
	// tenants' current rates.
	all    []fabric.TenantID
	onLink []fabric.TenantID
	rates  []topology.Rate
	// capacity and free are unreserved's reused results.
	capacity, free []topology.Rate
	ticker         *simtime.Ticker
	// Adjustments counts re-arbitration passes (Q3 overhead metric).
	adjustments uint64

	// links lists the fabric's links in ID order; linkIdx inverts it.
	// Every per-link walk of FreeMap, CapacityMap and the pressure
	// figure follows this order.
	links   []topology.LinkID
	linkIdx map[topology.LinkID]int
	// pressure is the reserved fraction of total effective capacity.
	// updatePressure recomputes it whenever guarantees or capacities
	// change, so Pressure is a plain read.
	pressure float64

	// Observability (nil when unattached).
	tracer         *obs.Tracer
	mAdjustments   *obs.Counter
	mCapsSet       *obs.Counter
	mCapsCleared   *obs.Counter
	mInstalledCaps *obs.Gauge
}

// linkGuarantees is one link's guaranteed tenants: those whose
// reservation gives the link a positive rate, in tenant order, with
// their rates and the rates' sum taken in that order.
type linkGuarantees struct {
	// holders counts the tenants whose reservation names the link at
	// any rate; the link is reserved while it is positive.
	holders int
	tenants []fabric.TenantID
	rates   []topology.Rate
	total   topology.Rate
}

// set records tenant's rate on the link (dropping it when not
// positive) and re-sums the total in tenant order.
func (g *linkGuarantees) set(tenant fabric.TenantID, r topology.Rate) {
	i, found := slices.BinarySearch(g.tenants, tenant)
	switch {
	case r > 0 && found:
		g.rates[i] = r
	case r > 0:
		g.tenants = slices.Insert(g.tenants, i, tenant)
		g.rates = slices.Insert(g.rates, i, r)
	case found:
		g.tenants = slices.Delete(g.tenants, i, i+1)
		g.rates = slices.Delete(g.rates, i, i+1)
	}
	g.total = 0
	for _, r := range g.rates {
		g.total += r
	}
}

// tenantCap is one installed (link, tenant) cap. subject is its trace
// subject, link + "/" + tenant, built once when a traced pass first
// sets the cap and carried from pass to pass; "" until then.
type tenantCap struct {
	tenant  fabric.TenantID
	rate    topology.Rate
	subject string
}

func cmpTenantCap(a, b tenantCap) int { return cmp.Compare(a.tenant, b.tenant) }

// SetObs attaches an observability substrate. Cap-change trace events
// are emitted only on transitions (a 50 us work-conserving loop
// refreshes every cap every pass; tracing the steady state would just
// flood the ring).
func (a *Arbiter) SetObs(o *obs.Obs) {
	if o == nil {
		a.tracer, a.mAdjustments, a.mCapsSet, a.mCapsCleared, a.mInstalledCaps = nil, nil, nil, nil, nil
		return
	}
	a.tracer = o.Tracer
	a.mAdjustments = o.Registry.Counter("ihnet_arbiter_adjustments_total",
		"Re-arbitration passes (each recomputes every cap on reserved links).")
	a.mCapsSet = o.Registry.Counter("ihnet_arbiter_caps_set_total",
		"Per-(link,tenant) rate caps installed or refreshed.")
	a.mCapsCleared = o.Registry.Counter("ihnet_arbiter_caps_cleared_total",
		"Per-(link,tenant) rate caps removed.")
	a.mInstalledCaps = o.Registry.Gauge("ihnet_arbiter_caps_installed",
		"Per-(link,tenant) rate caps currently installed.")
}

// New builds an arbiter. Call Start to begin the adjustment loop.
func New(fab *fabric.Fabric, cfg Config) (*Arbiter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Arbiter{
		fab:        fab,
		cfg:        cfg,
		guarantees: make(map[fabric.TenantID]resmodel.Reservation),
		linkIdx:    make(map[topology.LinkID]int),
	}
	for i, l := range fab.Topology().Links() {
		a.links = append(a.links, l.ID)
		a.linkIdx[l.ID] = i
	}
	a.reserved = make([]linkGuarantees, len(a.links))
	a.installed = make([][]tenantCap, len(a.links))
	a.desired = make([][]tenantCap, len(a.links))
	fab.OnCapacityChange(a.updatePressure)
	a.updatePressure()
	return a, nil
}

// Mode returns the arbiter's mode.
func (a *Arbiter) Mode() Mode { return a.cfg.Mode }

// Install merges a tenant's reservation and immediately re-arbitrates.
func (a *Arbiter) Install(tenant fabric.TenantID, res resmodel.Reservation) error {
	if tenant == "" {
		return fmt.Errorf("arbiter: empty tenant")
	}
	// Validate links exist before mutating state.
	for _, l := range res.LinkIDs() {
		if _, err := a.fab.EffectiveCapacity(l); err != nil {
			return err
		}
	}
	g, ok := a.guarantees[tenant]
	if !ok {
		g = resmodel.NewReservation()
		a.guarantees[tenant] = g
		i, _ := slices.BinarySearch(a.tenants, tenant)
		a.tenants = slices.Insert(a.tenants, i, tenant)
	}
	// Merge, keeping each named link's guarantees current.
	for l, v := range res.Links {
		_, had := g.Links[l]
		g.Links[l] += v
		lg := &a.reserved[a.linkIdx[l]]
		if !had {
			lg.holders++
		}
		lg.set(tenant, g.Links[l])
	}
	a.apply()
	a.updatePressure()
	return nil
}

// Remove drops a tenant's guarantees and re-arbitrates, releasing the
// bandwidth promptly "when applications come and go".
func (a *Arbiter) Remove(tenant fabric.TenantID) {
	g, ok := a.guarantees[tenant]
	if !ok {
		return
	}
	delete(a.guarantees, tenant)
	i, _ := slices.BinarySearch(a.tenants, tenant)
	a.tenants = slices.Delete(a.tenants, i, i+1)
	for l := range g.Links {
		lg := &a.reserved[a.linkIdx[l]]
		lg.set(tenant, 0)
		lg.holders--
	}
	a.apply()
	a.updatePressure()
}

// Guaranteed returns a tenant's merged reservation (zero-value if
// none).
func (a *Arbiter) Guaranteed(tenant fabric.TenantID) resmodel.Reservation {
	if g, ok := a.guarantees[tenant]; ok {
		return g.Clone()
	}
	return resmodel.NewReservation()
}

// FreeMap returns per-link unreserved capacity — the scheduler's Free
// input: effective capacity minus the sum of installed guarantees.
func (a *Arbiter) FreeMap() map[topology.LinkID]topology.Rate {
	_, free := a.unreserved()
	out := make(map[topology.LinkID]topology.Rate, len(a.links))
	for i, id := range a.links {
		out[id] = free[i]
	}
	return out
}

// unreserved returns every link's effective capacity and unreserved
// capacity, indexed like a.links, in buffers the next call reuses.
// Guarantees are subtracted in sorted tenant order and clamped at zero
// after each subtraction: the per-link result is a float
// accumulation, so iterating the guarantees map directly would make
// the scheduler's admission input (and therefore replayed runs) depend
// on Go's randomized map order.
func (a *Arbiter) unreserved() (capacity, free []topology.Rate) {
	if a.capacity == nil {
		a.capacity = make([]topology.Rate, len(a.links))
		a.free = make([]topology.Rate, len(a.links))
	}
	capacity, free = a.capacity, a.free
	for i, id := range a.links {
		c, _ := a.fab.EffectiveCapacity(id)
		capacity[i], free[i] = c, c
	}
	for _, t := range a.tenants {
		for l, r := range a.guarantees[t].Links {
			i := a.linkIdx[l]
			free[i] -= r
			if free[i] < 0 {
				free[i] = 0
			}
		}
	}
	return capacity, free
}

// Pressure is the host's reserved fraction of total effective
// capacity, 1 − Σ free / Σ capacity over every link — the fleet
// placement policy's load signal. It reads a stored figure: O(1), no
// allocation, no write.
func (a *Arbiter) Pressure() float64 { return a.pressure }

// updatePressure recomputes the whole pressure figure, summing
// in link-ID order so equal states always yield the same bits. Install
// and Remove call it, and so does the fabric whenever a link's
// capacity changes.
func (a *Arbiter) updatePressure() {
	capacity, free := a.unreserved()
	var f, c float64
	for i := range a.links {
		c += float64(capacity[i])
		f += float64(free[i])
	}
	if c == 0 {
		a.pressure = 0
		return
	}
	a.pressure = 1 - f/c
}

// GuaranteedTenants returns the sorted tenants holding at least one
// installed guarantee.
func (a *Arbiter) GuaranteedTenants() []fabric.TenantID {
	return append(make([]fabric.TenantID, 0, len(a.tenants)), a.tenants...)
}

// CapacityMap returns per-link effective capacity — the scheduler's
// Capacity input.
func (a *Arbiter) CapacityMap() map[topology.LinkID]topology.Rate {
	out := make(map[topology.LinkID]topology.Rate, len(a.links))
	for _, id := range a.links {
		out[id], _ = a.fab.EffectiveCapacity(id)
	}
	return out
}

// Start arms the periodic adjustment loop.
func (a *Arbiter) Start() error {
	if a.ticker != nil {
		return fmt.Errorf("arbiter: already started")
	}
	a.ticker = a.fab.Engine().Every(a.cfg.AdjustPeriod, a.apply)
	return nil
}

// Stop halts the loop; installed caps remain.
func (a *Arbiter) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
}

// Adjustments returns the number of re-arbitration passes so far.
func (a *Arbiter) Adjustments() uint64 { return a.adjustments }

// apply is one arbitration pass: recompute every cap on every reserved
// link from guarantees, current occupancy and mode, then clear any cap
// from a previous pass that is no longer wanted. The whole pass runs
// as one fabric batch — occupancy reads see the consistent pre-pass
// rates (measure-then-set) and the fabric recomputes once, which is
// what keeps per-pass cost inside the paper's Q3 microsecond budget.
func (a *Arbiter) apply() {
	a.fab.Batch(a.applyLocked)
}

func (a *Arbiter) applyLocked() {
	a.adjustments++
	a.mAdjustments.Inc()
	for i, link := range a.links {
		a.desired[i] = a.desired[i][:0]
		lg := &a.reserved[i]
		if lg.holders == 0 {
			continue
		}
		capacity, err := a.fab.EffectiveCapacity(link)
		if err != nil {
			continue
		}
		leftover := capacity - lg.total
		if leftover < 0 {
			leftover = 0
		}
		// Bystanders: tenants active on the link without a guarantee
		// there (excluding the system tenant, which is never capped —
		// heartbeats and monitoring must not be starved by tenants).
		// They follow the guaranteed tenants in all.
		a.all = append(a.all[:0], lg.tenants...)
		a.onLink = a.fab.AppendTenantsOn(a.onLink[:0], link)
		for _, t := range a.onLink {
			if t == fabric.SystemTenant {
				continue
			}
			if _, ok := slices.BinarySearch(lg.tenants, t); !ok {
				a.all = append(a.all, t)
			}
		}
		nGuar, nBy := len(lg.tenants), len(a.all)-len(lg.tenants)
		baseline := func(j int) topology.Rate {
			if j < nGuar {
				return lg.rates[j]
			}
			return leftover / topology.Rate(nBy)
		}
		switch a.cfg.Mode {
		case Strict:
			for j, t := range a.all {
				a.setCap(i, t, baseline(j))
			}
		case WorkConserving:
			// Guarantee-then-borrow: when the link has slack, each
			// tenant's cap grows from its current rate by a share of
			// the slack; when saturated, borrowed caps decay
			// multiplicatively back toward baseline so returning
			// guaranteed demand reclaims its share within a few
			// periods.
			a.rates = a.rates[:0]
			var used topology.Rate
			for _, t := range a.all {
				r := a.fab.TenantRateOn(link, t)
				a.rates = append(a.rates, r)
				used += r
			}
			slack := capacity - used
			n := len(a.all)
			if n == 0 {
				continue
			}
			for j, t := range a.all {
				base := baseline(j)
				var next topology.Rate
				if slack > capacity/100 {
					lend := topology.Rate(float64(slack) * a.cfg.BorrowFraction / float64(n))
					next = a.rates[j] + lend
				} else {
					cur := base
					if c, ok := installedCap(a.installed[i], t); ok {
						cur = c.rate
					}
					next = topology.Rate(float64(cur) * 0.7)
				}
				if next < base {
					next = base
				}
				a.setCap(i, t, next)
			}
		}
	}
	// Clear caps installed previously but not refreshed this pass, in
	// link then tenant order.
	n := 0
	for i, prev := range a.installed {
		cur := a.desired[i]
		slices.SortFunc(cur, cmpTenantCap)
		n += len(cur)
		j := 0
		for _, p := range prev {
			for j < len(cur) && cur[j].tenant < p.tenant {
				j++
			}
			if j < len(cur) && cur[j].tenant == p.tenant {
				continue
			}
			_ = a.fab.ClearTenantCap(a.links[i], p.tenant)
			a.mCapsCleared.Inc()
			if a.tracer.Enabled() {
				subject := p.subject
				if subject == "" {
					subject = string(a.links[i]) + "/" + string(p.tenant)
				}
				a.tracer.Emit(obs.Event{
					Kind: obs.KindCapClear, Virtual: a.fab.Engine().Now(),
					Subject: subject,
				})
			}
		}
	}
	a.installed, a.desired = a.desired, a.installed
	if a.mInstalledCaps != nil {
		a.mInstalledCaps.Set(float64(n))
	}
}

// setCap sets tenant's cap on link a.links[i] and records it for this
// pass.
func (a *Arbiter) setCap(i int, t fabric.TenantID, r topology.Rate) {
	link := a.links[i]
	c, emit := tenantCap{tenant: t, rate: r}, false
	if a.tracer.Enabled() {
		prev, ok := installedCap(a.installed[i], t)
		c.subject, emit = prev.subject, !ok || prev.rate != r
		if c.subject == "" {
			c.subject = string(link) + "/" + string(t)
		}
	}
	a.desired[i] = append(a.desired[i], c)
	_ = a.fab.SetTenantCap(link, t, r)
	a.mCapsSet.Inc()
	if emit {
		a.tracer.Emit(obs.Event{
			Kind: obs.KindCapSet, Virtual: a.fab.Engine().Now(),
			Subject: c.subject, Value: float64(r),
		})
	}
}

// installedCap looks tenant up in one link's tenant-sorted caps.
func installedCap(caps []tenantCap, t fabric.TenantID) (tenantCap, bool) {
	j, ok := slices.BinarySearchFunc(caps, t, func(c tenantCap, t fabric.TenantID) int { return cmp.Compare(c.tenant, t) })
	if !ok {
		return tenantCap{}, false
	}
	return caps[j], true
}
