package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// config is how one invocation runs its workloads.
type config struct {
	out         string // where builds and runs write (.bench_build)
	bin         string // the ihnetd binary under test
	probe       string // the store-probe binary; set when tracing
	window      time.Duration
	traceWindow time.Duration // a traced window after the untraced one; 0 for none
	minClass    int           // fewest samples a latency class may have
	traceDir    string
}

const bootTimeout = 2 * time.Minute

// report is what one run of one workload measured.
type report struct {
	workload  string
	seed      int64
	e2e, raw  map[string]float64 // end-to-end, normalised and as measured
	layer     map[string]float64 // per-layer, normalised (traced runs)
	samples   map[string]int     // samples behind each end-to-end metric
	tailPct   map[string]float64 // the percentile each *_p99_us reports
	attempted int
	failed    int
	calib     [2]float64 // fastest calibration in the first and second half of the run, ms
	calibMs   float64    // median calibration during the measured window, ms
	elapsed   time.Duration
	failures  []string
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// runWorkload runs the workload's phases once: boot fresh, preload,
// record the state hash, SIGKILL; restart on the same store setupBoots
// times, each one timed to ready with the hash verified (setup_s);
// calibrate; warm up; measure; calibrate again. The run's directory,
// with the daemon's log, is removed when every check passes.
func runWorkload(cfg config, w workload, seed int64) (*report, error) {
	dir := filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, w: w, dir: dir, log: log, args: w.flags(filepath.Join(dir, "store"))}
	start := time.Now()
	rep, err := r.execute(seed)
	log.Close()
	if rep != nil {
		rep.elapsed = time.Since(start)
	}
	if err == nil && rep.correct() {
		return rep, os.RemoveAll(dir)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d failed; daemon log kept in %s\n", w.name, seed, dir)
	return rep, err
}

// run is one workload run in progress.
type run struct {
	cfg  config
	w    workload
	dir  string
	args []string
	log  io.Writer
	d    *daemon
	chk  checks
}

func (r *run) boot() error {
	d, err := startDaemon(r.cfg.bin, r.args, r.log)
	if err != nil {
		return err
	}
	r.d = d
	return d.waitReady(bootTimeout)
}

func (r *run) stop() {
	if r.d != nil {
		r.d.kill()
		r.d = nil
	}
}

func (r *run) execute(seed int64) (*report, error) {
	defer r.stop()
	gen := r.w.gen(seed, &r.chk)
	if err := r.boot(); err != nil {
		return nil, err
	}
	ctl := newConn(-1, r.d.base)
	if err := gen.preload(ctl); err != nil {
		return nil, err
	}
	want, err := r.stateHash(ctl)
	if err != nil {
		return nil, err
	}
	ctl.close()
	r.stop()

	// Each restart is timed to ready with the hash verified, and its peak
	// RSS read then. endToEnd normalises the median restart by the
	// untraced window's median kernel run.
	var setups, rss []float64
	for i := 0; i < setupBoots; i++ {
		start := time.Now()
		if err := r.boot(); err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		ctl = newConn(-1, r.d.base)
		got, err := r.stateHash(ctl)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		peak, err := r.d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		if got != want {
			r.chk.fail("state hash after restart %d is %s, want %s", i+1, got, want)
		}
		if i < setupBoots-1 {
			ctl.close()
			r.stop()
		}
	}
	defer ctl.close()

	calBefore := calibrate()
	conns := make([]*conn, gen.conns())
	for i := range conns {
		conns[i] = newConn(i, r.d.base)
		defer conns[i].close()
	}
	gen.run(conns, &gate{}, time.Now().Add(warmup))
	win, err := r.window(gen, conns, ctl, r.cfg.window, false)
	if err != nil {
		return nil, err
	}
	var traced *window
	if r.cfg.traceWindow > 0 {
		if traced, err = r.window(gen, conns, ctl, r.cfg.traceWindow, true); err != nil {
			return nil, err
		}
	}
	calAfter := calibrate()

	rep := &report{workload: r.w.name, seed: seed}
	rep.calib, rep.calibMs = r.checkDrift(calBefore, calAfter, win, traced)
	rep.raw, rep.e2e, rep.samples, rep.tailPct, rep.attempted, rep.failed = r.endToEnd(win, setups, median(rss))
	if traced != nil {
		probe, err := r.storeProbe(ctl)
		if err != nil {
			return nil, err
		}
		layerRaw, details := r.perLayer(traced, probe, win)
		f := traced.speed()
		layerRaw["calib_ms"] = calibRefMs / float64(f)
		rep.layer = normalise(perLayer, layerRaw, f)
		if err := writeTrace(r.cfg.traceDir, traced, rep, layerRaw, details); err != nil {
			return nil, err
		}
	}
	rep.failures = r.chk.list()
	return rep, nil
}

// checkDrift fails the run when the machine changed speed during it: the
// fastest kernel run of its first half (the calibration before the
// window and the window's first half of pauses) and of its second half
// must be within calibDrift of each other. It returns the two, and the
// median kernel run of the measured windows. Contention from other
// tenants of a shared machine comes and goes within seconds and only
// slows the kernel; the windows' metrics are normalised slice by slice
// for it. The fastest run is the machine's own speed.
func (r *run) checkDrift(before, after []float64, wins ...*window) ([2]float64, float64) {
	var pauses []float64
	for _, w := range wins {
		if w != nil {
			for _, m := range w.marks {
				pauses = append(pauses, m.calibMs)
			}
		}
	}
	half := len(pauses) / 2
	first := minOf(append(append([]float64(nil), before...), pauses[:half]...))
	second := minOf(append(append([]float64(nil), pauses[half:]...), after...))
	cal := [2]float64{first, second}
	if d := max(first, second)/min(first, second) - 1; d > calibDrift {
		r.chk.fail("the calibration kernel's fastest run moved %.0f%% during the run (%.2f -> %.2f ms): the machine changed speed",
			100*d, first, second)
	}
	return cal, median(pauses)
}

// stateHash fetches the canonical state fingerprint.
func (r *run) stateHash(c *conn) (string, error) {
	var out struct {
		StateHash string `json:"state_hash"`
		FleetHash string `json:"fleet_hash"`
	}
	if r.w.fleet {
		err := c.get("ctl", "/api/v1/fleet/state/hash", &out)
		return out.FleetHash, err
	}
	err := c.get("ctl", "/api/v1/state/hash", &out)
	return out.StateHash, err
}

// health is the part of /api/v1/healthz a run reads.
type health struct {
	Shards     int `json:"shards"`
	Subsystems struct {
		Store struct {
			WalRecords int64 `json:"wal_records"`
		} `json:"store"`
	} `json:"subsystems"`
}

// sliceLen cuts a window into slices. The load is paused marksPerSlice
// times a slice while the calibration kernel runs once, so each slice
// has its own measure of the machine's speed, sampled often enough to
// follow contention that comes and goes within a second.
const (
	sliceLen      = time.Second
	marksPerSlice = 4
)

// window is one measured window.
type window struct {
	spans                 []span
	marks                 []mark // window start, each pause, window end
	walDelta              int64  // growth of the durable WAL
	shards                int
	promBefore, promAfter string // /metrics scrapes around a traced window
	prom                  promDelta
	profile               []byte // daemon CPU profile of a traced window
}

// mark is a point where the window's load was paused.
type mark struct {
	at, resume time.Duration // since epoch: pause called and ended
	cpu        time.Duration // daemon user+system at the pause
	calibMs    float64       // the kernel run during the pause
}

// slices is how many slices the window has; the last may be short.
func (w *window) slices() int {
	return (len(w.marks) - 1 + marksPerSlice - 1) / marksPerSlice
}

// bounds returns the first and last mark of slice i.
func (w *window) bounds(i int) (first, last int) {
	first = i * marksPerSlice
	return first, min(first+marksPerSlice, len(w.marks)-1)
}

// slice returns the index of the slice that time t (since epoch) falls
// in: the last one for t at or after the window's end.
func (w *window) slice(t time.Duration) int {
	n := len(w.marks) - 1
	return min(sort.Search(n, func(i int) bool { return w.marks[i+1].at > t }), n-1) / marksPerSlice
}

// length returns how long slice i carried load, pauses left out.
func (w *window) length(i int) time.Duration {
	first, last := w.bounds(i)
	var d time.Duration
	for k := first; k < last; k++ {
		d += w.marks[k+1].at - w.marks[k].resume
	}
	return d
}

// factor is slice i's speed factor, from the kernel runs at its marks.
func (w *window) factor(i int) speed {
	first, last := w.bounds(i)
	var sum float64
	for _, m := range w.marks[first : last+1] {
		sum += m.calibMs
	}
	return speed(calibRefMs / (sum / float64(last-first+1)))
}

// speed is the window's speed factor, from its median kernel run.
func (w *window) speed() speed {
	ms := make([]float64, len(w.marks))
	for i, m := range w.marks {
		ms[i] = m.calibMs
	}
	return speed(calibRefMs / median(ms))
}

// window drives the workload for length, pausing it marksPerSlice times
// a slice to read the daemon's CPU time and run the calibration kernel
// once. A
// traced window also scrapes /metrics before and after it and profiles
// the daemon's CPU for its length (whole seconds) over one extra, idle
// connection.
func (r *run) window(gen generator, conns []*conn, ctl *conn, length time.Duration, traced bool) (*window, error) {
	for _, c := range conns {
		c.spans = nil
	}
	var before, after health
	if err := ctl.get("ctl", "/api/v1/healthz", &before); err != nil {
		return nil, err
	}
	w := &window{shards: before.Shards}
	var wg sync.WaitGroup
	defer wg.Wait() // on error paths too: the profile ends with the window
	var profErr error
	if traced {
		text, err := ctl.raw("/metrics")
		if err != nil {
			return nil, err
		}
		w.promBefore = string(text)
		pc := newConn(-2, r.d.base)
		defer pc.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.profile, profErr = pc.raw(fmt.Sprintf("/debug/pprof/profile?seconds=%d", int(length.Seconds())))
		}()
	}
	var g gate
	var markErr error
	record := func() {
		m := mark{at: time.Since(epoch)}
		g.pause(func() {
			var err error
			if m.cpu, err = r.d.cpuTime(); err != nil {
				markErr = err
			}
			m.calibMs = calibrateOnce()
			m.resume = time.Since(epoch)
			w.marks = append(w.marks, m)
		})
	}
	record()
	stop, marked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(marked)
		tick := time.NewTicker(sliceLen / marksPerSlice)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				record()
			}
		}
	}()
	gen.run(conns, &g, time.Now().Add(length))
	close(stop)
	<-marked
	record()
	if markErr != nil {
		return nil, markErr
	}
	wg.Wait()
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	if err := ctl.get("ctl", "/api/v1/healthz", &after); err != nil {
		return nil, err
	}
	w.walDelta = after.Subsystems.Store.WalRecords - before.Subsystems.Store.WalRecords
	if traced {
		text, err := ctl.raw("/metrics")
		if err != nil {
			return nil, err
		}
		w.promAfter = string(text)
		if w.prom.before, err = parseProm(w.promBefore); err != nil {
			return nil, err
		}
		if w.prom.after, err = parseProm(w.promAfter); err != nil {
			return nil, err
		}
	}
	for _, c := range conns {
		w.spans = append(w.spans, c.spans...)
	}
	return w, nil
}

// perSlice computes the window's per-slice metrics, as measured and
// normalised by each slice's own speed factor: requests completed per
// second, daemon CPU per completed request, and simulated milliseconds
// per wall second of advance requests. A request belongs to the slice
// it completed in. A slice shorter than half a sliceLen (the tail of
// the window) is left out.
func perSlice(w *window) (raw, norm map[string][]float64) {
	type acc struct {
		ok     int
		vns    int64
		advSec float64
	}
	accs := make([]acc, w.slices())
	for _, s := range w.spans {
		if !s.OK {
			continue
		}
		a := &accs[w.slice(s.End)]
		a.ok++
		a.vns += s.VNs
		if s.VNs > 0 {
			a.advSec += s.latency().Seconds()
		}
	}
	raw, norm = map[string][]float64{}, map[string][]float64{}
	add := func(name string, v float64, norm1 float64) {
		raw[name] = append(raw[name], v)
		norm[name] = append(norm[name], norm1)
	}
	for i, a := range accs {
		dur := w.length(i)
		if dur < sliceLen/2 || a.ok == 0 {
			continue
		}
		f := w.factor(i)
		ops := float64(a.ok) / dur.Seconds()
		add("ops_per_s", ops, f.rate(ops))
		first, last := w.bounds(i)
		cpu := float64(w.marks[last].cpu-w.marks[first].cpu) / float64(time.Microsecond) / float64(a.ok)
		add("cpu_us_per_op", cpu, f.duration(cpu))
		if a.advSec > 0 {
			vms := float64(a.vns) / 1e6 / a.advSec
			add("sim_speed_vms_per_s", vms, f.rate(vms))
		}
	}
	return raw, norm
}

// endToEnd computes the gated metrics of an untraced window, as
// measured and normalised, and checks the window's outputs: the WAL grew
// by exactly the records the successful requests journaled, at most 1%
// of requests failed, and each latency class has enough samples. Rates
// and CPU per request are medians over the window's slices; latency
// percentiles are over every request, each normalised by its slice's
// speed factor, with the ungated tails beside the gated ones; setup_s is
// the median restart, normalised by the window's median speed factor
// (the kernel runs of the set-up phase are too few to track it);
// peak_rss_mb is the median restart's peak RSS once ready.
func (r *run) endToEnd(w *window, setups []float64, rssMB float64) (raw, norm map[string]float64, samples map[string]int, tailPct map[string]float64, attempted, failed int) {
	var writes, reads [2][]float64 // as measured, normalised
	var advances int
	var walWant int64
	for _, s := range w.spans {
		if !s.OK {
			failed++
			continue
		}
		lat := float64(s.latency()) / float64(time.Microsecond)
		class := &reads
		if s.Write {
			class = &writes
		}
		class[0] = append(class[0], lat)
		class[1] = append(class[1], w.factor(w.slice(s.End)).duration(lat))
		if s.VNs > 0 {
			advances++
		}
		walWant += int64(s.WAL)
	}
	attempted = len(w.spans)
	if walWant != w.walDelta {
		r.chk.fail("store_wal_records grew by %d, but the successful requests journaled %d", w.walDelta, walWant)
	}
	if attempted == 0 || float64(failed) > 0.01*float64(attempted) {
		r.chk.fail("%d of %d requests failed (more than 1%%)", failed, attempted)
	}
	for class, xs := range map[string][]float64{"write": writes[0], "read": reads[0]} {
		if len(xs) < r.cfg.minClass {
			r.chk.fail("%s latency has %d samples, fewer than %d", class, len(xs), r.cfg.minClass)
		}
	}

	raw, norm = map[string]float64{}, map[string]float64{}
	tailPct = map[string]float64{}
	sraw, snorm := perSlice(w)
	for k := range sraw {
		raw[k], norm[k] = median(sraw[k]), median(snorm[k])
	}
	for name, class := range map[string][2][]float64{"write": writes, "read": reads} {
		for i, m := range []map[string]float64{raw, norm} {
			s := sorted(class[i])
			m[name+"_p50_us"], _ = percentile(s, 0.5)
			m[name+"_p90_us"], _ = percentile(s, 0.9)
			var p float64
			m[name+"_p99_us"], p = tail(s)
			tailPct[name+"_p99_us"] = 100 * p
		}
	}
	raw["setup_s"] = median(setups)
	norm["setup_s"] = w.speed().duration(raw["setup_s"])
	raw["peak_rss_mb"], norm["peak_rss_mb"] = rssMB, rssMB

	ok := attempted - failed
	samples = map[string]int{
		"setup_s": len(setups), "ops_per_s": ok, "cpu_us_per_op": ok, "peak_rss_mb": len(setups),
		"write_p50_us": len(writes[0]), "write_p90_us": len(writes[0]), "write_p99_us": len(writes[0]),
		"read_p50_us": len(reads[0]), "read_p90_us": len(reads[0]), "read_p99_us": len(reads[0]),
		"sim_speed_vms_per_s": advances,
	}
	return raw, norm, samples, tailPct, attempted, failed
}
