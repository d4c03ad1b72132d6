package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// A workload is one traffic mix against one daemon configuration. Why
// each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	sync  string // the daemon's -store-sync
	fleet bool   // boot fleetHosts synthetic hosts instead of one
	gen   func(seed int64, chk *checks) generator
}

// flags are the daemon's flags beyond -addr: its defaults, plus manual
// virtual time, the run's store and the workload's configuration.
func (w workload) flags(storeDir string) []string {
	args := []string{"-autoadvance=0", "-store-dir", storeDir, "-store-sync", w.sync}
	if w.fleet {
		args = append(args, "-synth-hosts", fmt.Sprint(fleetHosts))
	}
	return args
}

// generator drives one workload. Its preload is journaled only, so the
// state it leaves is a pure function of the seed; run then drives the
// workload's connections, each on its own goroutine, until deadline,
// holding g while a request is in flight.
type generator interface {
	preload(c *conn) error
	conns() int
	run(conns []*conn, g *gate, deadline time.Time)
}

var workloads = []workload{
	{name: "churn", sync: "os",
		gen: func(seed int64, chk *checks) generator { return newHostGen(seed, churnMix, churnPreloadOps, chk) }},
	{name: "durable-batch", sync: "always",
		gen: func(seed int64, chk *checks) generator { return newHostGen(seed, batchMix, batchPreloadOps, chk) }},
	{name: "scrape", sync: "os",
		gen: func(seed int64, _ *checks) generator { return &scrapeGen{pool: newPool(seed, scrapeAdmits)} }},
	{name: "fleet-128", sync: "os", fleet: true,
		gen: func(seed int64, _ *checks) generator {
			return &fleetGen{pool: newPool(seed, 2*fleetPrePlaces), host: map[string]string{}}
		}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Preload sizes. They are what a set-up restart replays, so they fix
// setup_s and, with the window, how long a run takes.
const (
	churnPreloadOps = 2000
	batchPreloadOps = 1000
	scrapeAdmits    = 16
	fleetPreAdvance = 5
	fleetPrePlaces  = 64
	fleetPreEvicts  = 16
)

// target is one admission target in the API's form.
type target struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
}

type admitBody struct {
	Tenant  string   `json:"tenant"`
	Targets []target `json:"targets"`
}

type batchOp struct {
	Op       string   `json:"op"`
	Tenant   string   `json:"tenant"`
	Targets  []target `json:"targets,omitempty"`
	Workload string   `json:"workload,omitempty"`
}

type batchBody struct {
	Ops []batchOp `json:"ops"`
}

type advanceBody struct {
	Micros int64 `json:"micros"`
}

// pool is a seeded tenant generator over a fixed set of tenant names,
// plus the set of tenants resident. Names are reused once evicted: the
// daemon keeps per-tenant byte accounting on every link a tenant ever
// used, so a stream of never-seen names would make every request slower
// than the last and no window would measure a steady state.
type pool struct {
	rng            *rand.Rand
	resident, free []string
}

// newPool returns a pool of size names, t000 upward.
func newPool(seed int64, size int) pool {
	p := pool{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < size; i++ {
		p.free = append(p.free, fmt.Sprintf("t%03d", i))
	}
	return p
}

// fresh takes a random free name, with a 1–3 Gbps target from the NIC
// to either socket's memory. The caller makes it resident once admitted
// or returns it with release.
func (p *pool) fresh() admitBody {
	return admitBody{
		Tenant: draw(p.rng, &p.free),
		Targets: []target{{
			Src:      "nic0",
			Dst:      fmt.Sprintf("memory:socket%d", p.rng.Intn(2)),
			RateGbps: math.Round((1+2*p.rng.Float64())*100) / 100,
		}},
	}
}

// take removes and returns a random resident tenant; the caller
// releases its name once evicted.
func (p *pool) take() string { return draw(p.rng, &p.resident) }

// release returns names to the free set.
func (p *pool) release(names ...string) { p.free = append(p.free, names...) }

// any returns a random resident tenant, leaving it resident.
func (p *pool) any() string { return p.resident[p.rng.Intn(len(p.resident))] }

// draw removes and returns a random element of *xs.
func draw(rng *rand.Rand, xs *[]string) string {
	s := *xs
	i := rng.Intn(len(s))
	x := s[i]
	s[i] = s[len(s)-1]
	*xs = s[:len(s)-1]
	return x
}

// gate lets a window pause its load: each loop holds it shared while a
// request is in flight, and pause holds it exclusively, so a pause
// starts once the requests in flight have completed and no request is
// sent during it.
type gate struct {
	mu     sync.RWMutex
	paused atomic.Int64 // total nanoseconds the load has been paused
}

// pause runs f with the load stopped. The pause counts from the call:
// the wait for requests in flight to complete is part of it.
func (g *gate) pause(f func()) {
	start := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
	g.paused.Add(int64(time.Since(start)))
}

// closedLoop calls step back to back until deadline or until a request
// gets no response (the daemon is gone).
func closedLoop(g *gate, deadline time.Time, step func() *span) {
	for time.Now().Before(deadline) {
		g.mu.RLock()
		sp := step()
		g.mu.RUnlock()
		if sp.Status == 0 {
			return
		}
	}
}

// openLoop issues request i at start + i/rate until deadline, each timed
// from its due time, so a stall also delays the requests queued behind
// it. A pause of g shifts the rest of the schedule by its length. It
// stops early if a request gets no response.
func openLoop(g *gate, start, deadline time.Time, rate float64, issue func(i int, due time.Time) *span) {
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		var due time.Time
		for {
			shift := g.paused.Load()
			due = start.Add(time.Duration(i)*interval + time.Duration(shift))
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			g.mu.RLock()
			if g.paused.Load() == shift {
				break
			}
			g.mu.RUnlock() // paused while waiting: reschedule
		}
		sp := issue(i, due)
		g.mu.RUnlock()
		if sp.Status == 0 {
			return
		}
	}
}

// runAll runs each loop on its own goroutine and waits for all of them.
func runAll(loops ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(loops))
	for _, loop := range loops {
		go func(loop func()) {
			defer wg.Done()
			loop()
		}(loop)
	}
	wg.Wait()
}

// hostResident is the resident-set size the single-host mixes hold: a
// request's cost grows with the tenants resident, and a random walk over
// 8–24 of them made durable-batch's throughput differ by seed by 7%.
const hostResident = 16

// hostGen is the single-host write path: churn, or with batches the
// durable-batch mix.
type hostGen struct {
	pool
	mix    hostMix
	preOps int  // requests in the preload
	verify bool // off while preloading: verify moves virtual time unjournaled
	chk    *checks
}

// hostMix is the share of each kind of request; verify takes the rest.
// A single request is an admit or an evict, whichever brings the
// resident set back to hostResident, so half and half.
type hostMix struct{ batch, single, advance float64 }

var (
	churnMix = hostMix{single: 0.80, advance: 0.10}
	// durable-batch sends verifies at three times churn's share, so its
	// read class has as many samples in one window as churn's. Batches
	// are 64% of its writes, so the write p50 and p90 both fall inside the
	// batch latencies: with half the writes batches, the p50 sat on the
	// step between single requests and batches and moved with each
	// seed's share of them.
	batchMix = hostMix{batch: 0.45, single: 0.15, advance: 0.10}
)

func newHostGen(seed int64, mix hostMix, preOps int, chk *checks) *hostGen {
	return &hostGen{pool: newPool(seed, 3*hostResident), mix: mix, preOps: preOps, chk: chk}
}

func (g *hostGen) conns() int { return 1 }

func (g *hostGen) preload(c *conn) error {
	for i := 0; i < g.preOps; i++ {
		if sp := g.step(c); !sp.OK {
			return fmt.Errorf("preload op %d (%s): status %d", i, sp.Route, sp.Status)
		}
	}
	g.verify = true
	return nil
}

func (g *hostGen) run(conns []*conn, gt *gate, deadline time.Time) {
	closedLoop(gt, deadline, func() *span { return g.step(conns[0]) })
}

// step issues one request of the mix. Verify moves virtual time without
// a journal record, so the preload sends an advance in its place.
func (g *hostGen) step(c *conn) *span {
	r, m := g.rng.Float64(), g.mix
	switch {
	case r < m.batch:
		return g.batch(c)
	case r < m.batch+m.single:
		return g.admitOrEvict(c)
	case r < m.batch+m.single+m.advance || !g.verify:
		return advance(c, "advance", "/api/v1/advance", 100)
	}
	return c.do(call{route: "verify", method: "GET",
		path: "/api/v1/tenants/" + g.any() + "/verify", want: http.StatusOK})
}

func (g *hostGen) admitOrEvict(c *conn) *span {
	if len(g.resident) < hostResident {
		body := g.fresh()
		sp := c.do(call{route: "admit", write: true, method: "POST", path: "/api/v1/tenants",
			body: body, want: http.StatusCreated})
		if sp.OK {
			sp.WAL = 1
			g.resident = append(g.resident, body.Tenant)
		} else {
			g.release(body.Tenant)
		}
		return sp
	}
	t := g.take()
	sp := c.do(call{route: "evict", write: true, method: "DELETE",
		path: "/api/v1/tenants/" + t, want: http.StatusOK})
	if sp.OK {
		sp.WAL = 1
		g.release(t)
	}
	return sp
}

// batch evicts 4 resident tenants and admits 4 new ones in one request:
// one journal record, one solver settle. With fewer than 4 tenants
// resident, at the start of the preload, it sends a single request
// instead.
func (g *hostGen) batch(c *conn) *span {
	if len(g.resident) < 4 {
		return g.admitOrEvict(c)
	}
	var body batchBody
	var evicted, admitted []string
	for i := 0; i < 4; i++ {
		evicted = append(evicted, g.take())
		body.Ops = append(body.Ops, batchOp{Op: "evict", Tenant: evicted[i]})
	}
	for i := 0; i < 4; i++ {
		a := g.fresh()
		body.Ops = append(body.Ops, batchOp{Op: "admit", Tenant: a.Tenant, Targets: a.Targets})
		admitted = append(admitted, a.Tenant)
	}
	var out struct {
		SolverSettles int `json:"solver_settles"`
	}
	sp := c.do(call{route: "batch", write: true, method: "POST", path: "/api/v1/batch",
		body: body, want: http.StatusOK, out: &out})
	if sp.OK && out.SolverSettles != 1 {
		sp.OK = false
		g.chk.fail("POST /batch reported %d solver settles, want 1", out.SolverSettles)
	}
	if sp.OK {
		sp.WAL = 1
		g.resident = append(g.resident, admitted...)
		g.release(evicted...)
	} else {
		g.release(admitted...)
	}
	return sp
}

// advance moves virtual time by micros (at most 1 ms, so one journal
// record).
func advance(c *conn, route, path string, micros int64) *span {
	sp := c.do(call{route: route, write: true, method: "POST", path: path,
		body: advanceBody{Micros: micros}, want: http.StatusOK})
	if sp.OK {
		sp.WAL, sp.VNs = 1, micros*1000
	}
	return sp
}

// scrapeGen runs reads beside writes: connection A advances in a closed
// loop, connection B reads on a fixed 50 req/s schedule.
type scrapeGen struct {
	pool
	vtNs atomic.Int64 // virtual time after A's latest advance
}

// scrapeRate leaves each read a 20 ms slot, about twice the slowest
// read's (/telemetry) service time. At 200 req/s that read overran its
// 5 ms slot every cycle, the loop ran saturated, and its latencies from
// due time spread across runs by up to 3x their median.
const scrapeRate = 50

func (g *scrapeGen) conns() int { return 2 }

func (g *scrapeGen) preload(c *conn) error {
	var start batchBody
	for _, w := range []string{"kv", "ml", "loopback", "scan"} {
		start.Ops = append(start.Ops, batchOp{Op: "workload", Workload: w, Tenant: "w-" + w})
	}
	if sp := c.do(call{route: "batch", write: true, method: "POST", path: "/api/v1/batch",
		body: start, want: http.StatusOK}); !sp.OK {
		return fmt.Errorf("preload workloads: status %d", sp.Status)
	}
	for i := 0; i < scrapeAdmits; i++ {
		body := g.fresh()
		if sp := c.do(call{route: "admit", write: true, method: "POST", path: "/api/v1/tenants",
			body: body, want: http.StatusCreated}); !sp.OK {
			return fmt.Errorf("preload admit %d: status %d", i, sp.Status)
		}
	}
	var out struct {
		VirtualTimeNs int64 `json:"virtual_time_ns"`
	}
	if sp := c.do(call{route: "advance", write: true, method: "POST", path: "/api/v1/advance",
		body: advanceBody{Micros: 100_000}, want: http.StatusOK, out: &out}); !sp.OK {
		return fmt.Errorf("preload advance: status %d", sp.Status)
	}
	g.vtNs.Store(out.VirtualTimeNs)
	return nil
}

var scrapeReads = []struct{ route, path string }{
	{"metrics", "/metrics"},
	{"healthz", "/api/v1/healthz"},
	{"report", "/api/v1/report"},
	{"state_hash", "/api/v1/state/hash"},
	{"telemetry", "/api/v1/telemetry?since_ns="},
	{"trace_events", "/api/v1/trace/events?limit=100"},
}

func (g *scrapeGen) run(conns []*conn, gt *gate, deadline time.Time) {
	runAll(func() {
		closedLoop(gt, deadline, func() *span {
			var out struct {
				VirtualTimeNs int64 `json:"virtual_time_ns"`
			}
			sp := conns[0].do(call{route: "advance", write: true, method: "POST", path: "/api/v1/advance",
				body: advanceBody{Micros: 250}, want: http.StatusOK, out: &out})
			if sp.OK {
				sp.WAL, sp.VNs = 1, 250_000
				g.vtNs.Store(out.VirtualTimeNs)
			}
			return sp
		})
	}, func() {
		openLoop(gt, time.Now(), deadline, scrapeRate, func(i int, due time.Time) *span {
			r := scrapeReads[i%len(scrapeReads)]
			path := r.path
			if r.route == "telemetry" {
				path += fmt.Sprint(max(0, g.vtNs.Load()-1_000_000))
			}
			return conns[1].do(call{route: r.route, method: "GET", path: path, want: http.StatusOK, due: due})
		})
	})
}

// Fleet sizes: the synthetic hosts (named synth-00000..), the tenants
// resident across them once the preload has run, the virtual time each
// fleet advance of the window covers, and the mutation rate.
//
// The window holds the resident count at fleetResident: what an advance,
// a placement's pressure scan and /fleet/hosts cost grows with it, and a
// random walk over 16–64 tenants made throughput and latency differ by
// seed by up to 17%. At 4 mutations a second placements are about 6% of
// the writes, so the write p90 falls inside the advances; at 8 a second
// they were 11%, and the p90 sat on the step between the two.
const (
	fleetHosts      = 128
	fleetResident   = fleetPrePlaces - fleetPreEvicts
	fleetAdvanceUs  = 250
	fleetMutateRate = 4 // requests per second
)

// fleetGen drives the sharded fleet: connection A advances and scrapes
// in a closed loop, connection B places, evicts and migrates tenants in
// another.
type fleetGen struct {
	pool
	host map[string]string // resident tenant -> host
}

func (g *fleetGen) conns() int { return 2 }

func (g *fleetGen) preload(c *conn) error {
	for i := 0; i < fleetPreAdvance; i++ {
		if sp := g.advance(c, 1000); !sp.OK {
			return fmt.Errorf("preload fleet advance %d: status %d", i, sp.Status)
		}
	}
	for i := 0; i < fleetPrePlaces; i++ {
		if sp := g.place(c, time.Time{}); !sp.OK {
			return fmt.Errorf("preload place %d: status %d", i, sp.Status)
		}
	}
	for i := 0; i < fleetPreEvicts; i++ {
		if sp := g.evict(c, time.Time{}); !sp.OK {
			return fmt.Errorf("preload evict %d: status %d", i, sp.Status)
		}
	}
	return nil
}

var fleetReads = []struct{ route, path string }{
	{"fleet_rollup", "/api/v1/fleet/metrics/rollup"},
	{"fleet_hosts", "/api/v1/fleet/hosts"},
	{"metrics", "/metrics"},
}

func (g *fleetGen) run(conns []*conn, gt *gate, deadline time.Time) {
	runAll(func() {
		i := 0
		closedLoop(gt, deadline, func() *span {
			defer func() { i++ }()
			if i%4 == 0 {
				return g.advance(conns[0], fleetAdvanceUs)
			}
			r := fleetReads[i%4-1]
			return conns[0].do(call{route: r.route, method: "GET", path: r.path, want: http.StatusOK})
		})
	}, func() {
		openLoop(gt, time.Now(), deadline, fleetMutateRate, func(_ int, due time.Time) *span {
			return g.mutate(conns[1], due)
		})
	})
}

// mutate is 90% place or evict, whichever brings the resident count back
// to fleetResident (so about 45% each), and 10% migrate. due is the
// request's slot on the open loop's schedule; zero sends it now.
func (g *fleetGen) mutate(c *conn, due time.Time) *span {
	switch {
	case g.rng.Float64() >= 0.90:
		return g.migrate(c, due)
	case len(g.resident) < fleetResident:
		return g.place(c, due)
	}
	return g.evict(c, due)
}

func (g *fleetGen) advance(c *conn, micros int64) *span {
	var out struct {
		HostsAdvanced int `json:"hosts_advanced"`
	}
	sp := c.do(call{route: "fleet_advance", write: true, method: "POST", path: "/api/v1/fleet/advance",
		body: advanceBody{Micros: micros}, want: http.StatusOK, out: &out})
	if sp.OK {
		sp.WAL, sp.VNs = out.HostsAdvanced, micros*1000
	}
	return sp
}

func (g *fleetGen) place(c *conn, due time.Time) *span {
	body := g.fresh()
	var out struct {
		Host string `json:"host"`
	}
	sp := c.do(call{route: "fleet_place", write: true, method: "POST", path: "/api/v1/fleet/tenants",
		body: body, want: http.StatusCreated, out: &out, due: due})
	if sp.OK {
		sp.WAL = 1
		g.resident = append(g.resident, body.Tenant)
		g.host[body.Tenant] = out.Host
	} else {
		g.release(body.Tenant)
	}
	return sp
}

func (g *fleetGen) evict(c *conn, due time.Time) *span {
	t := g.take()
	delete(g.host, t)
	sp := c.do(call{route: "fleet_evict", write: true, method: "DELETE",
		path: "/api/v1/fleet/tenants/" + t, want: http.StatusOK, due: due})
	if sp.OK {
		sp.WAL = 1
		g.release(t)
	}
	return sp
}

// migrate moves a resident tenant to another random host: an admit
// there and an evict at the source, two journal records.
func (g *fleetGen) migrate(c *conn, due time.Time) *span {
	t := g.any()
	dst := g.host[t]
	for dst == g.host[t] {
		dst = fmt.Sprintf("synth-%05d", g.rng.Intn(fleetHosts))
	}
	sp := c.do(call{route: "fleet_migrate", write: true, method: "POST",
		path: "/api/v1/fleet/tenants/" + t + "/migrate", body: map[string]string{"host": dst},
		want: http.StatusOK, due: due})
	if sp.OK {
		sp.WAL = 2
		g.host[t] = dst
	}
	return sp
}
