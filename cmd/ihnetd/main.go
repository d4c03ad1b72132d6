// Command ihnetd is the manageable intra-host network daemon: it runs
// the full manager (monitor + anomaly platform + arbiter) over one or
// more simulated hosts and serves the JSON control plane of
// internal/httpapi under /api/v1/, plus Prometheus metrics at /metrics
// and Go profiling at /debug/pprof/.
//
// The daemon always serves a fleet; a single-host daemon is a one-host
// fleet. Every per-host operation (topology, report, tenants,
// diagnostics, telemetry, snapshot/restore/journal, state hash,
// remediation, trace events, the SSE event stream) lives under
// /api/v1/fleet/hosts/{host}/; with exactly one host the same routes
// also answer directly under /api/v1/ (the host is named after its
// topology, e.g. two-socket). Fleet-wide operations — advance,
// placement, migration, rebalancing, the merged metrics roll-up
// (/api/v1/fleet/metrics/rollup), the host-tagged event stream
// (/api/v1/fleet/events), shard stats and /api/v1/healthz — serve
// every boot mode, with POST /api/v1/advance as the one-host alias of
// /api/v1/fleet/advance. A structured access log (one logfmt line per
// request, disable with -access-log=false) mints per-request
// correlation IDs that double as the root spans of journaled commands.
//
// Without -hosts-dir or -synth-hosts the daemon boots one recording
// host from -preset/-seed, from a snapshot file (-restore), or from
// the durable store. -hosts-dir boots one recording host per *.json
// host spec in the directory, and -synth-hosts=N boots N deterministic
// synthetic hosts.
//
// Virtual time advances continuously by default (1 ms of virtual time
// per 10 ms of wall time); pass -autoadvance=0 to drive time only via
// the advance routes for fully deterministic interaction. Hosts
// advance on the sharded epoch engine: -fleet-shards independent shard
// groups (default one per 64 hosts), each with its own worker pool
// (-fleet-workers goroutines per shard) and inner epoch loop (barriers
// every -fleet-epoch of virtual time), synchronized only at coarse
// outer epochs — so 10k hosts advance without a global barrier per
// millisecond while staying bit-for-bit deterministic.
//
// Pass -remedy to arm the closed-loop remediation controllers, one per
// host: each subscribes to its host's anomaly verdicts, plans against
// live fabric state, and executes repairs through the journaled
// command path, stepping after every auto-advance. Per-host status and
// the live-editable rule table are at .../remedy/status and
// .../remedy/policy, the aggregate at /api/v1/fleet/remedy/status
// (seed the policy from a file with -remedy-policy).
//
// Every mutating command is recorded through internal/snap, so each
// host can be checkpointed (POST .../snapshot), rolled back (POST
// .../restore), and downloaded as a replayable command journal (GET
// .../journal). Pass -store-dir to make the journals durable: every
// command is appended to an on-disk write-ahead log (crash-safe,
// checksummed; -store-sync picks fsync-per-command vs page-cache
// durability) and snapshots also land as content-addressed incremental
// checkpoints. A daemon restarted with the same -store-dir recovers
// the newest loadable checkpoint plus the journal tail and resumes
// byte-identical state — GET .../state/hash and
// /api/v1/fleet/state/hash are the fingerprints to compare. A single
// host stores at the -store-dir root; fleet hosts store under
// hosts/<name>, all sharing one deduplicated chunk pool.
//
// Pass -auth-token-file to require a static bearer token
// (Authorization: Bearer <token> or X-API-Token) on every request;
// loopback clients stay exempt unless -auth-loopback=false. Denials
// are 401s in the typed envelope, counted in
// ihnet_http_auth_denied_total.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the auto-advance
// loop drains first (no advance is cut off mid-event), then the HTTP
// server finishes in-flight requests under a timeout.
//
// Usage:
//
//	ihnetd -addr :8080 -preset two-socket
//	curl localhost:8080/api/v1/report
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/api/v1/tenants -d '{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":80}]}'
//
//	ihnetd -addr :8080 -hosts-dir hosts/
//	curl localhost:8080/api/v1/fleet/hosts
//	curl localhost:8080/api/v1/fleet/hosts/lab-box/report
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/topology"
)

func main() {
	if cli.MaybeVersion("ihnetd", os.Args[1:]) {
		return
	}
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	preset := flag.String("preset", "two-socket",
		"topology preset: "+strings.Join(topology.PresetNames(), ", "))
	seed := flag.Int64("seed", 1, "simulation seed")
	auto := flag.Duration("autoadvance", time.Millisecond,
		"virtual time advanced per 10ms of wall time (0 = manual only)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
	restore := flag.String("restore", "",
		"snapshot file to resume from (its config overrides -preset/-seed)")
	hostsDir := flag.String("hosts-dir", "",
		"directory of *.json host specs: boot a fleet instead of a single host")
	synthHosts := flag.Int("synth-hosts", 0,
		"boot a fleet of N deterministic synthetic recording hosts (exclusive with -hosts-dir)")
	fleetWorkers := flag.Int("fleet-workers", 0,
		"fleet runner goroutines per shard (0 = GOMAXPROCS/shards)")
	fleetShards := flag.Int("fleet-shards", 0,
		"fleet shard groups, synchronized at outer epochs (0 = one per 64 hosts)")
	fleetEpoch := flag.Duration("fleet-epoch", time.Millisecond,
		"virtual-time barrier interval between inner fleet epochs")
	accessLog := flag.Bool("access-log", true,
		"log one structured line per request (request IDs are minted either way)")
	remedyOn := flag.Bool("remedy", false,
		"run the closed-loop remediation controller (stepped on every advance)")
	remedyPolicy := flag.String("remedy-policy", "",
		"policy file for -remedy (default: built-in rule table)")
	storeDir := flag.String("store-dir", "",
		"durable store directory: journal every command to disk and recover state across restarts")
	storeSync := flag.String("store-sync", string(store.SyncOS),
		`WAL durability for -store-dir: "always" (fsync per command, survives power loss) or "os" (page cache, survives process kills)`)
	authTokenFile := flag.String("auth-token-file", "",
		"file holding the static bearer token; when set, requests must present it (Authorization: Bearer or X-API-Token)")
	authLoopback := flag.Bool("auth-loopback", true,
		"exempt loopback (127.0.0.1/::1) requests from bearer-token auth")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	// Resolve store and auth configuration up front so a bad flag fails
	// fast, before any host state exists.
	syncPolicy, err := store.ParseSyncPolicy(*storeSync)
	if err != nil {
		log.Fatalf("ihnetd: -store-sync: %v", err)
	}
	storeOpts := store.Options{Sync: syncPolicy}
	authToken := ""
	if *authTokenFile != "" {
		if authToken, err = httpapi.LoadTokenFile(*authTokenFile); err != nil {
			log.Fatalf("ihnetd: -auth-token-file: %v", err)
		}
	}

	// Load the remediation policy up front so a bad file fails fast,
	// before any host state exists.
	pol := remedy.DefaultPolicy()
	if *remedyPolicy != "" {
		if !*remedyOn {
			log.Fatalf("ihnetd: -remedy-policy requires -remedy")
		}
		data, err := os.ReadFile(*remedyPolicy)
		if err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		if pol, err = remedy.ParsePolicy(data); err != nil {
			log.Fatalf("ihnetd: %s: %v", *remedyPolicy, err)
		}
	}

	if *hostsDir != "" && *synthHosts > 0 {
		log.Fatalf("ihnetd: -hosts-dir and -synth-hosts are mutually exclusive")
	}
	// Build the hosts: a fleet from -hosts-dir/-synth-hosts, or one
	// recording session — from -restore, the durable store, or a fresh
	// boot — served as a one-host fleet. Durable fleets keep each host's
	// store under hosts/<name>, sharing one content-addressed chunk
	// pool; a single host keeps its store at the -store-dir root.
	var fl *fleet.Fleet
	var fstore *store.FleetStore
	var source string
	if *hostsDir != "" || *synthHosts > 0 {
		fl, fstore = bootFleet(*hostsDir, *synthHosts, *preset, *seed, *storeDir, storeOpts)
		source = *hostsDir
		if *synthHosts > 0 {
			source = fmt.Sprintf("synth(seed=%d)", *seed)
		}
	} else {
		sess, st := bootHost(*restore, *preset, *seed, *storeDir, storeOpts)
		fl = fleet.New()
		h, err := fl.AddSession(sess.Manager().Topology().Name, sess)
		if err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		source = fmt.Sprintf("host %q", h.Name)
		if st != nil {
			fstore = store.SingleHost(h.Name, st)
		}
	}
	srv, err := httpapi.New(fl, fleet.ShardConfig{
		Shards:  *fleetShards,
		Workers: *fleetWorkers,
		Epoch:   simtime.Duration(*fleetEpoch),
	})
	if err != nil {
		log.Fatalf("ihnetd: %v", err)
	}
	if fstore != nil {
		srv.SetStore(fstore)
		log.Printf("ihnetd: durable store %s (sync=%s)", *storeDir, syncPolicy)
	}
	var fc *remedy.FleetController
	if *remedyOn {
		if fc, err = remedy.NewFleet(fl, srv.Runner(), pol); err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		srv.SetRemedy(fc)
		log.Printf("ihnetd: remediation controllers armed on %d host(s) (policy: %d rules)",
			len(fl.Hosts()), len(pol.Rules))
	}
	log.Printf("ihnetd: managing %d host(s) from %s on %s (shards=%d, workers/shard=%d, epoch=%v, auto-advance %v/10ms; metrics at /metrics, pprof at /debug/pprof/)",
		len(fl.Hosts()), source, *addr, srv.Runner().Shards(), srv.Runner().Workers(), *fleetEpoch, *auto)
	handler := srv.Handler()

	// The access log wraps the whole surface: every request gets a
	// correlation ID (minted or taken from X-Request-ID) that doubles
	// as the root span of the command it journals, so a log line joins
	// to journal entries and trace events on one key.
	logf := log.Printf
	if !*accessLog {
		logf = nil
	}
	// Auth sits inside the access log so denials are still logged (and
	// outside the mux so /metrics and pprof are covered too).
	if authToken != "" {
		handler = httpapi.Auth(handler, httpapi.AuthConfig{
			Token: authToken, TrustLoopback: *authLoopback, Registry: srv.Registry(),
		})
		log.Printf("ihnetd: bearer-token auth armed (loopback exempt: %v)", *authLoopback)
	}
	handler = httpapi.AccessLog(handler, logf)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Auto-advance loop: drains on shutdown so no advance is cut off
	// mid-event; advanceDone closes once the last advance returns.
	advanceDone := make(chan struct{})
	if *auto > 0 {
		go func() {
			defer close(advanceDone)
			ticker := time.NewTicker(10 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					srv.Advance(simtime.Duration(*auto))
				}
			}
		}()
	} else {
		close(advanceDone)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("ihnetd: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	log.Printf("ihnetd: signal received, draining (timeout %v)", *shutdownTimeout)
	<-advanceDone
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("ihnetd: shutdown: %v", err)
	}
	if fc != nil {
		fc.Close()
	}
	var processed uint64
	for _, h := range fl.Hosts() {
		h.Mgr.Stop()
		processed += h.Mgr.Engine().Processed
	}
	if fstore != nil {
		if err := fstore.Close(); err != nil {
			log.Printf("ihnetd: close store: %v", err)
		}
	}
	log.Printf("ihnetd: stopped %d host(s) at virtual time %v after %d events",
		len(fl.Hosts()), srv.Runner().Now(), processed)
}

// bootFleet loads a fleet from a host-spec directory or synthesizes
// one. With a store directory, every recording host gets its own
// journal/snapshot store; a host whose store already has state is
// recovered from it — the in-memory host the loader just built is
// discarded — so a killed daemon restarts exactly where the journal
// ends.
func bootFleet(hostsDir string, synthHosts int, preset string, seed int64, storeDir string, storeOpts store.Options) (*fleet.Fleet, *store.FleetStore) {
	var fl *fleet.Fleet
	var err error
	if synthHosts > 0 {
		fl, err = fleet.Synth(fleet.SynthSpec{
			Hosts: synthHosts, Preset: preset, Seed: seed,
			Record: true, Workload: true,
		})
	} else {
		opts := core.DefaultOptions()
		opts.Seed = seed
		fl, err = fleet.LoadDir(hostsDir, opts)
	}
	if err != nil {
		log.Fatalf("ihnetd: %v", err)
	}
	if storeDir == "" {
		return fl, nil
	}
	fstore, err := store.OpenFleet(storeDir, storeOpts)
	if err != nil {
		log.Fatalf("ihnetd: open fleet store: %v", err)
	}
	recovered, booted := 0, 0
	for _, h := range fl.Hosts() {
		hs, err := fstore.Host(h.Name)
		if err != nil {
			log.Fatalf("ihnetd: host store %s: %v", h.Name, err)
		}
		if !hs.HasState() {
			if err := hs.Bootstrap(h.Sess); err != nil {
				log.Fatalf("ihnetd: bootstrap host %s: %v", h.Name, err)
			}
			booted++
			continue
		}
		sess, rep, err := hs.Recover()
		if err != nil {
			log.Fatalf("ihnetd: recover host %s: %v", h.Name, err)
		}
		h.Replace(sess)
		recovered++
		if rep.SnapshotsSkipped > 0 || rep.TruncatedBytes > 0 {
			log.Printf("ihnetd: host %s recovered with damage: %d checkpoints skipped, %d WAL bytes truncated",
				h.Name, rep.SnapshotsSkipped, rep.TruncatedBytes)
		}
	}
	log.Printf("ihnetd: fleet store %s: %d hosts recovered, %d bootstrapped", storeDir, recovered, booted)
	return fl, fstore
}

// bootHost builds the single host's recording session: from a
// -restore snapshot (which also rewrites the store, if any), from the
// durable store's newest checkpoint plus journal tail, or fresh from
// -preset/-seed.
func bootHost(restore, preset string, seed int64, storeDir string, storeOpts store.Options) (*snap.Session, *store.Store) {
	var st *store.Store
	var err error
	if storeDir != "" {
		if st, err = store.Open(storeDir, storeOpts); err != nil {
			log.Fatalf("ihnetd: open store: %v", err)
		}
	}
	var sess *snap.Session
	switch {
	case restore != "":
		f, err := os.Open(restore)
		if err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		sess, err = snap.Restore(f)
		f.Close()
		if err != nil {
			log.Fatalf("ihnetd: restore %s: %v", restore, err)
		}
		log.Printf("ihnetd: restored %s: %d journal entries replayed to t=%v",
			restore, sess.Journal().Len(), sess.Now())
		// An explicit -restore wins over whatever the store holds:
		// rewrite the store to describe the restored session.
		if st != nil {
			if err := st.Reset(sess.Config(), sess.Journal().Entries); err != nil {
				log.Fatalf("ihnetd: rewrite store from %s: %v", restore, err)
			}
			st.Resume(sess)
		}
	case st != nil && st.HasState():
		// The store's config.json pins preset and seed; -preset and
		// -seed are ignored on a recovery boot.
		var rep store.RecoveryReport
		if sess, rep, err = st.Recover(); err != nil {
			log.Fatalf("ihnetd: recover from %s: %v", storeDir, err)
		}
		log.Printf("ihnetd: recovered from %s: checkpoint seq %d + %d replayed journal records to t=%v (hash %s)",
			storeDir, rep.SnapshotSeq, rep.Replayed, sess.Now(), rep.StateHash)
		if rep.SnapshotsSkipped > 0 || rep.TruncatedBytes > 0 {
			log.Printf("ihnetd: recovery found damage: %d checkpoints skipped, %d WAL bytes truncated, %d orphan segments",
				rep.SnapshotsSkipped, rep.TruncatedBytes, rep.OrphanSegments)
		}
	default:
		if _, ok := topology.Presets[preset]; !ok {
			fmt.Fprintf(os.Stderr, "ihnetd: unknown preset %q\n", preset)
			os.Exit(1)
		}
		opts := core.DefaultOptions()
		opts.Seed = seed
		if sess, err = snap.NewSession(snap.Config{Preset: preset, Options: opts}); err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		if st != nil {
			if err := st.Bootstrap(sess); err != nil {
				log.Fatalf("ihnetd: bootstrap store: %v", err)
			}
		}
	}
	return sess, st
}
