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
	"fmt"
	"sort"

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
	// installed tracks every cap this arbiter has set, so stale caps
	// are cleared when guarantees or tenants go away. The value is
	// the current desired cap (work-conserving state).
	installed map[topology.LinkID]map[fabric.TenantID]topology.Rate
	ticker    *simtime.Ticker
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
		installed:  make(map[topology.LinkID]map[fabric.TenantID]topology.Rate),
		linkIdx:    make(map[topology.LinkID]int),
	}
	for i, l := range fab.Topology().Links() {
		a.links = append(a.links, l.ID)
		a.linkIdx[l.ID] = i
	}
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
	}
	g.Merge(res)
	a.apply()
	a.updatePressure()
	return nil
}

// Remove drops a tenant's guarantees and re-arbitrates, releasing the
// bandwidth promptly "when applications come and go".
func (a *Arbiter) Remove(tenant fabric.TenantID) {
	if _, ok := a.guarantees[tenant]; !ok {
		return
	}
	delete(a.guarantees, tenant)
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
// capacity, indexed like a.links. Guarantees are subtracted in sorted
// tenant order and clamped at zero after each subtraction: the
// per-link result is a float accumulation, so iterating the
// guarantees map directly would make the scheduler's admission input
// (and therefore replayed runs) depend on Go's randomized map order.
func (a *Arbiter) unreserved() (capacity, free []topology.Rate) {
	capacity = make([]topology.Rate, len(a.links))
	free = make([]topology.Rate, len(a.links))
	for i, id := range a.links {
		c, _ := a.fab.EffectiveCapacity(id)
		capacity[i], free[i] = c, c
	}
	for _, t := range a.GuaranteedTenants() {
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
	out := make([]fabric.TenantID, 0, len(a.guarantees))
	for t := range a.guarantees {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// reservedLinks returns the sorted set of links with any guarantee.
func (a *Arbiter) reservedLinks() []topology.LinkID {
	seen := make(map[topology.LinkID]bool)
	for _, g := range a.guarantees {
		for l := range g.Links {
			seen[l] = true
		}
	}
	out := make([]topology.LinkID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

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
	desired := make(map[topology.LinkID]map[fabric.TenantID]topology.Rate)
	setCap := func(link topology.LinkID, t fabric.TenantID, r topology.Rate) {
		m := desired[link]
		if m == nil {
			m = make(map[fabric.TenantID]topology.Rate)
			desired[link] = m
		}
		m[t] = r
		_ = a.fab.SetTenantCap(link, t, r)
		a.mCapsSet.Inc()
		if a.tracer.Enabled() {
			if prev, ok := a.installed[link][t]; !ok || prev != r {
				a.tracer.Emit(obs.Event{
					Kind: obs.KindCapSet, Virtual: a.fab.Engine().Now(),
					Subject: string(link) + "/" + string(t), Value: float64(r),
				})
			}
		}
	}
	for _, link := range a.reservedLinks() {
		capacity, err := a.fab.EffectiveCapacity(link)
		if err != nil {
			continue
		}
		// Tenant guarantee map for this link.
		guar := make(map[fabric.TenantID]topology.Rate)
		var totalGuar topology.Rate
		tenants := make([]fabric.TenantID, 0, len(a.guarantees))
		for t := range a.guarantees {
			tenants = append(tenants, t)
		}
		sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
		guarTenants := tenants[:0]
		for _, t := range tenants {
			if r, ok := a.guarantees[t].Links[link]; ok && r > 0 {
				guar[t] = r
				totalGuar += r
				guarTenants = append(guarTenants, t)
			}
		}
		leftover := capacity - totalGuar
		if leftover < 0 {
			leftover = 0
		}
		// Bystanders: tenants active on the link without a guarantee
		// there (excluding the system tenant, which is never capped —
		// heartbeats and monitoring must not be starved by tenants).
		var bystanders []fabric.TenantID
		for _, t := range a.fab.TenantsOn(link) {
			if t == fabric.SystemTenant {
				continue
			}
			if _, ok := guar[t]; !ok {
				bystanders = append(bystanders, t)
			}
		}
		baseline := func(t fabric.TenantID) topology.Rate {
			if r, ok := guar[t]; ok {
				return r
			}
			if len(bystanders) == 0 {
				return 0
			}
			return leftover / topology.Rate(len(bystanders))
		}
		all := append(append([]fabric.TenantID(nil), guarTenants...), bystanders...)
		switch a.cfg.Mode {
		case Strict:
			for _, t := range all {
				setCap(link, t, baseline(t))
			}
		case WorkConserving:
			// Guarantee-then-borrow: when the link has slack, each
			// tenant's cap grows from its current rate by a share of
			// the slack; when saturated, borrowed caps decay
			// multiplicatively back toward baseline so returning
			// guaranteed demand reclaims its share within a few
			// periods.
			var used topology.Rate
			for _, t := range all {
				used += a.fab.TenantRateOn(link, t)
			}
			slack := capacity - used
			n := len(all)
			if n == 0 {
				continue
			}
			prev := a.installed[link]
			for _, t := range all {
				base := baseline(t)
				var next topology.Rate
				if slack > capacity/100 {
					lend := topology.Rate(float64(slack) * a.cfg.BorrowFraction / float64(n))
					next = a.fab.TenantRateOn(link, t) + lend
				} else {
					cur, ok := prev[t]
					if !ok {
						cur = base
					}
					next = topology.Rate(float64(cur) * 0.7)
				}
				if next < base {
					next = base
				}
				setCap(link, t, next)
			}
		}
	}
	// Clear caps installed previously but not refreshed this pass.
	for link, prev := range a.installed {
		for t := range prev {
			if _, ok := desired[link][t]; !ok {
				_ = a.fab.ClearTenantCap(link, t)
				a.mCapsCleared.Inc()
				if a.tracer.Enabled() {
					a.tracer.Emit(obs.Event{
						Kind: obs.KindCapClear, Virtual: a.fab.Engine().Now(),
						Subject: string(link) + "/" + string(t),
					})
				}
			}
		}
	}
	a.installed = desired
	if a.mInstalledCaps != nil {
		n := 0
		for _, m := range desired {
			n += len(m)
		}
		a.mInstalledCaps.Set(float64(n))
	}
}
