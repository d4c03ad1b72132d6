// Command ihctl is the operator's client for the ihnetd control
// plane: inspect topology and usage, admit/evict/verify tenants, read
// alerts and detections, run diagnostics, advance virtual time, and
// place, migrate, and rebalance tenants across hosts. All traffic goes
// through internal/api — its Client and the route types it declares —
// and the versioned /api/v1/ surface.
//
// Usage:
//
//	ihctl [-addr host:port] [-token t | -token-file f] [-host name] <command> [args]
//
// Against a daemon started with -auth-token-file, pass the bearer
// token via -token, -token-file, or the IHNET_TOKEN environment
// variable.
//
// Every daemon is a fleet (a single-host daemon is a one-host fleet),
// so the fleet-wide commands work in every boot mode:
//
//	advance <micros>               advance all hosts to a shared barrier
//	hosts                          list hosts with pressure and clocks
//	fleet-report                   placement + utilization summary
//	place <tenant> <src> <dst> <gbps>   admit on the least-pressured host
//	evict <tenant>                 evict wherever the tenant runs
//	migrate <tenant> <host>        move the tenant to the named host
//	rebalance                      evacuate tenants off anomalous links
//	solver                         per-host component-solver stats
//	                               (partition shape, dirty-region
//	                               accounting, batch coalescing) + totals
//	state-hash                     state fingerprint: host hashes folded in
//	                               name order (compare across a
//	                               kill/restart of a -store-dir daemon)
//	watch [kind]                   tail the host-tagged event stream (SSE)
//	health                         daemon health with per-subsystem status
//	                               (exits 1 if the daemon is degraded)
//	remedy status                  remediation status + MTTR per host
//	                               (exits 1 while incidents are open)
//	remedy policy [file]           show the active policy, or install one
//	                               on every host
//	fleet-rollup                   merged metrics snapshot (JSON)
//	fleet-shards                   sharded engine stats: clocks, epochs, cache
//	experiment <id>                run one experiment (E1..E12) server-side
//	version                        print build information
//
// Commands on one host. Without -host they use the one-host aliases,
// so they work only against a single-host daemon; with -host <name>
// they address that host of any daemon (/api/v1/fleet/hosts/<name>/):
//
//	topology                       summarize the host
//	report                         per-link utilization + per-tenant usage
//	alerts                         monitor alerts (congestion, config drift)
//	detections                     anomaly detections with suspects
//	tenants                        list admitted tenants
//	admit <tenant> <src> <dst> <gbps>   admit a single-pipe tenant
//	verify <tenant>                check guarantees against reality
//	usage <tenant>                 the tenant's own virtual-link usage
//	ping <src> <dst>               intra-host ping via the daemon
//	trace <src> <dst>              intra-host traceroute via the daemon
//	perf <src> <dst> [tenant]      bandwidth probe via the daemon
//	batch -f <ops.json>            apply a multi-op mutation batch
//	                               (one journal entry, one solver settle)
//	snapshot [file]                checkpoint the host (default snapshot.json,
//	                               or <host>-snapshot.json with -host; also
//	                               persisted when the daemon runs -store-dir)
//	restore <file>                 roll the host back to a snapshot
//	journal [file]                 download the command journal (default stdout)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fleet"
)

func main() {
	if cli.MaybeVersion("ihctl", os.Args[1:]) {
		return
	}
	addr := flag.String("addr", "127.0.0.1:8080", "ihnetd address")
	token := flag.String("token", "",
		"bearer token for daemons started with -auth-token-file (overrides -token-file and $IHNET_TOKEN)")
	tokenFile := flag.String("token-file", "",
		"file holding the bearer token (overrides $IHNET_TOKEN)")
	host := flag.String("host", "",
		"run the per-host commands on this host of the daemon (default: the one-host aliases)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "ihctl: need a command (see -h)")
		os.Exit(2)
	}
	// Ctrl-C cancels the in-flight request; the daemon sees the
	// disconnect and aborts server-side work at the next slice.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	client := api.New(*addr)
	tok, err := resolveToken(*token, *tokenFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ihctl: %v\n", err)
		os.Exit(2)
	}
	client.SetToken(tok)
	c := command{api: client, ctx: ctx, out: os.Stdout, host: *host}
	if err := c.dispatch(args); err != nil {
		fmt.Fprintf(os.Stderr, "ihctl: %v\n", err)
		os.Exit(1)
	}
}

// resolveToken picks the bearer token: explicit -token, then
// -token-file, then the IHNET_TOKEN environment variable. Empty means
// no auth header — right for daemons without -auth-token-file and for
// loopback-exempt ones.
func resolveToken(token, tokenFile string) (string, error) {
	if token != "" {
		return token, nil
	}
	if tokenFile != "" {
		data, err := os.ReadFile(tokenFile)
		if err != nil {
			return "", err
		}
		tok := string(bytes.TrimSpace(data))
		if tok == "" {
			return "", fmt.Errorf("token file %s is empty", tokenFile)
		}
		return tok, nil
	}
	return os.Getenv("IHNET_TOKEN"), nil
}

type command struct {
	api  *api.Client
	ctx  context.Context
	out  io.Writer // where rendered responses go
	host string    // the -host flag: "" uses the one-host aliases
}

// on returns a per-host route's path: under the host's fleet mount
// with -host, else the one-host alias.
func (c command) on(path string) string {
	if c.host == "" {
		return path
	}
	return "/fleet/hosts/" + url.PathEscape(c.host) + path
}

// show sends one request (see api.Client.Do for the body forms) and
// renders the raw response body.
func (c command) show(method, path string, body any, render func([]byte) error) error {
	var data []byte
	if err := c.api.Do(c.ctx, method, path, body, &data); err != nil {
		return err
	}
	return render(data)
}

// view GETs a v1 path, decodes it into the route's type and renders
// it.
func view[T any](c command, path string, render func(T) error) error {
	var v T
	if err := c.api.Get(c.ctx, path, &v); err != nil {
		return err
	}
	return render(v)
}

func admitBody(rest []string) (api.Admit, error) {
	gbps, err := strconv.ParseFloat(rest[3], 64)
	if err != nil {
		return api.Admit{}, fmt.Errorf("bad rate %q", rest[3])
	}
	return api.Admit{Tenant: rest[0], Targets: []api.Target{{Src: rest[1], Dst: rest[2], RateGbps: gbps}}}, nil
}

func (c command) dispatch(args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int, usage string) error {
		if len(rest) != n {
			return fmt.Errorf("usage: ihctl %s %s", cmd, usage)
		}
		return nil
	}
	switch cmd {
	case "topology":
		return view(c, c.on("/topology"), c.prettyTopology)
	case "report":
		return view(c, c.on("/report"), c.prettyReport)
	case "alerts":
		return c.show("GET", c.on("/alerts"), nil, c.prettyJSON)
	case "detections":
		return c.show("GET", c.on("/detections"), nil, c.prettyJSON)
	case "tenants":
		return c.show("GET", c.on("/tenants"), nil, c.prettyJSON)
	case "admit":
		if err := need(4, "<tenant> <src> <dst> <gbps>"); err != nil {
			return err
		}
		body, err := admitBody(rest)
		if err != nil {
			return err
		}
		return c.show("POST", c.on("/tenants"), body, c.prettyJSON)
	case "evict":
		if err := need(1, "<tenant>"); err != nil {
			return err
		}
		return c.show("DELETE", "/fleet/tenants/"+url.PathEscape(rest[0]), nil, c.prettyJSON)
	case "verify":
		if err := need(1, "<tenant>"); err != nil {
			return err
		}
		return c.show("GET", c.on("/tenants/"+url.PathEscape(rest[0])+"/verify"), nil, c.prettyJSON)
	case "usage":
		if err := need(1, "<tenant>"); err != nil {
			return err
		}
		return c.show("GET", c.on("/tenants/"+url.PathEscape(rest[0])+"/usage"), nil, c.prettyJSON)
	case "ping":
		if err := need(2, "<src> <dst>"); err != nil {
			return err
		}
		return c.show("GET", c.on("/diag/ping?src="+url.QueryEscape(rest[0])+"&dst="+url.QueryEscape(rest[1])), nil, c.prettyJSON)
	case "trace":
		if err := need(2, "<src> <dst>"); err != nil {
			return err
		}
		return c.show("GET", c.on("/diag/trace?src="+url.QueryEscape(rest[0])+"&dst="+url.QueryEscape(rest[1])), nil, c.prettyJSON)
	case "perf":
		if len(rest) != 2 && len(rest) != 3 {
			return fmt.Errorf("usage: ihctl perf <src> <dst> [tenant]")
		}
		u := "/diag/perf?src=" + url.QueryEscape(rest[0]) + "&dst=" + url.QueryEscape(rest[1])
		if len(rest) == 3 {
			u += "&tenant=" + url.QueryEscape(rest[2])
		}
		return c.show("GET", c.on(u), nil, c.prettyJSON)
	case "advance":
		if err := need(1, "<micros>"); err != nil {
			return err
		}
		us, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad micros %q", rest[0])
		}
		return c.show("POST", "/fleet/advance", api.Advance{Micros: us}, c.prettyJSON)
	case "batch":
		return c.batch(rest)
	case "solver":
		return view(c, "/fleet/fabric/solver", func(st api.FleetSolverStats) error {
			for _, name := range sortedKeys(st.Hosts) {
				c.renderSolverStats(name+": ", st.Hosts[name])
			}
			c.renderSolverStats("fleet: ", st.Totals)
			return nil
		})
	case "experiment":
		if err := need(1, "<id>"); err != nil {
			return err
		}
		return view(c, "/experiments/"+url.PathEscape(rest[0]), func(e api.Experiment) error {
			_, err := fmt.Fprint(c.out, e.Rendered)
			return err
		})
	case "snapshot":
		out := "snapshot.json"
		if c.host != "" {
			out = c.host + "-snapshot.json"
		}
		if len(rest) == 1 {
			out = rest[0]
		} else if len(rest) > 1 {
			return fmt.Errorf("usage: ihctl snapshot [file]")
		}
		return c.show("POST", c.on("/snapshot"), nil, c.toFile(out, "snapshot"))
	case "restore":
		if err := need(1, "<file>"); err != nil {
			return err
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		return c.show("POST", c.on("/restore"), data, c.prettyJSON)
	case "journal":
		if len(rest) > 1 {
			return fmt.Errorf("usage: ihctl journal [file]")
		}
		if len(rest) == 1 {
			return c.show("GET", c.on("/journal"), nil, c.toFile(rest[0], "journal"))
		}
		return c.show("GET", c.on("/journal"), nil, c.prettyJSON)
	case "state-hash":
		return c.show("GET", "/fleet/state/hash", nil, c.prettyJSON)
	case "watch":
		return c.watch(rest)
	case "health":
		return view(c, "/healthz", c.health)
	case "remedy":
		return c.remedy(rest)
	case "fleet-rollup":
		return c.show("GET", "/fleet/metrics/rollup", nil, c.prettyJSON)
	case "fleet-shards":
		return view(c, "/fleet/shards", func(st fleet.ShardStats) error {
			fmt.Fprintf(c.out, "shards: %d (workers/shard %d, inner epoch %v, outer every %d)\n",
				len(st.Shards), st.WorkersPerShard, time.Duration(st.InnerEpochNs), st.OuterEvery)
			fmt.Fprintf(c.out, "outer epochs: %d  rollup cache: %d hits / %d misses\n",
				st.OuterEpochs, st.RollupCacheHits, st.RollupCacheMisses)
			for _, sh := range st.Shards {
				dirty := ""
				if sh.Dirty {
					dirty = "  dirty"
				}
				fmt.Fprintf(c.out, "  shard %3d: %4d hosts (%d quarantined)  t=%v  inner %d  advanced %d  refolds %d%s\n",
					sh.Index, sh.Hosts, sh.Quarantined, time.Duration(sh.VirtualTimeNs),
					sh.InnerEpochs, sh.HostsAdvanced, sh.RollupRefolds, dirty)
			}
			return nil
		})
	case "hosts":
		return view(c, "/fleet/hosts", c.prettyHosts)
	case "fleet-report":
		return c.show("GET", "/fleet/report", nil, c.prettyJSON)
	case "place":
		if err := need(4, "<tenant> <src> <dst> <gbps>"); err != nil {
			return err
		}
		body, err := admitBody(rest)
		if err != nil {
			return err
		}
		return c.show("POST", "/fleet/tenants", body, c.prettyJSON)
	case "migrate":
		if err := need(2, "<tenant> <host>"); err != nil {
			return err
		}
		return c.show("POST", "/fleet/tenants/"+url.PathEscape(rest[0])+"/migrate",
			api.Migrate{Host: rest[1]}, c.prettyJSON)
	case "rebalance":
		return c.show("POST", "/fleet/rebalance", nil, c.prettyJSON)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// watch tails the fleet event stream — every host's events, tagged
// with the host, plus epoch barriers — rendering one line per event
// until interrupted. An optional kind argument filters client-side.
func (c command) watch(rest []string) error {
	if len(rest) > 1 {
		return fmt.Errorf("usage: ihctl watch [kind]")
	}
	kindFilter := ""
	if len(rest) == 1 {
		kindFilter = rest[0]
	}
	return c.api.Stream(c.ctx, "/fleet/events", 0, func(ev api.StreamEvent) error {
		if kindFilter != "" && ev.Type != kindFilter {
			return nil
		}
		var d api.TraceEvent
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			return err
		}
		line := fmt.Sprintf("%12d %-16s", d.VirtualNs, ev.Type)
		if d.Host != "" {
			line += " host=" + d.Host
		}
		if d.Subject != "" {
			line += " " + d.Subject
		}
		if d.Value != 0 {
			line += fmt.Sprintf(" value=%g", d.Value)
		}
		if d.Span != "" {
			line += " span=" + d.Span
		}
		if d.Detail != "" {
			line += "  " + d.Detail
		}
		fmt.Fprintln(c.out, line)
		return nil
	})
}

// remedy handles "remedy status" and "remedy policy [file]" against
// the fleet remediation routes (one controller per host).
func (c command) remedy(rest []string) error {
	const usage = "usage: ihctl remedy status|policy [file]"
	if len(rest) == 0 {
		return fmt.Errorf(usage)
	}
	switch rest[0] {
	case "status":
		return view(c, "/fleet/remedy/status", c.renderRemedyStatus)
	case "policy":
		const path = "/fleet/remedy/policy"
		switch len(rest) {
		case 1:
			return c.show("GET", path, nil, c.prettyJSON)
		case 2:
			doc, err := os.ReadFile(rest[1])
			if err != nil {
				return err
			}
			return c.show("PUT", path, doc, c.prettyJSON)
		}
	}
	return fmt.Errorf(usage)
}

// renderRemedyStatus prints the summary, one line per host, and the
// incident ledger of every degraded host, returning a non-nil error (so
// ihctl exits 1) while incidents are open — scripts can gate on the
// exit code alone.
func (c command) renderRemedyStatus(st api.FleetRemedyStatus) error {
	fmt.Fprintf(c.out, "status: %s  open: %d  resolved: %d/%d  mttr p50/p99: %.1f/%.1f us\n"+
		"actions: %d executed, %d rejected, %d failed, %d suppressed (of %d proposed)\n",
		okOrDegraded(st.Degraded), st.Stats.Open, st.Stats.Resolved, st.Stats.Incidents,
		st.MTTRp50Us, st.MTTRp99Us,
		st.Stats.Executed, st.Stats.Rejected, st.Stats.Failed, st.Stats.Suppressed, st.Stats.Proposed)
	for _, name := range sortedKeys(st.Hosts) {
		hs := st.Hosts[name]
		fmt.Fprintf(c.out, "  %-20s %-8s open=%d resolved=%d\n", name, okOrDegraded(hs.Degraded), hs.Stats.Open, hs.Stats.Resolved)
		for _, in := range hs.Incidents {
			state := "open"
			if in.Resolved {
				state = "resolved"
			}
			fmt.Fprintf(c.out, "    %-36s %-10s %-8s actions=%d\n", in.Subject, in.Class, state, len(in.Actions))
		}
	}
	if st.Degraded {
		return fmt.Errorf("remediation in progress: %d open incident(s)", st.Stats.Open)
	}
	return nil
}

func okOrDegraded(degraded bool) string {
	if degraded {
		return "degraded"
	}
	return "ok"
}

// health renders the typed health document with its subsystem table:
// each subsystem's status, then every other field it reports, by name.
// A degraded daemon makes ihctl exit non-zero so health checks can be
// scripted without parsing the output.
func (c command) health(h api.Health) error {
	fmt.Fprintf(c.out, "status: %s (%s daemon, version %s, %s)\n", h.Status, h.Mode, h.Version, h.GoVersion)
	fmt.Fprintf(c.out, "uptime: %.1fs  virtual time: %dns\n", h.UptimeSeconds, h.VirtualTimeNs)
	fmt.Fprintf(c.out, "hosts: %d (%d quarantined)  tenants: %d\n", h.Hosts, h.Quarantined, h.Tenants)
	// Subsystems differ in their fields; walk them as the JSON the
	// daemon sent.
	raw, err := json.Marshal(h.Subsystems)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var subs map[string]map[string]any
	if err := dec.Decode(&subs); err != nil {
		return err
	}
	for _, name := range sortedKeys(subs) {
		sub := subs[name]
		fmt.Fprintf(c.out, "  %-12s %v", name, sub["status"])
		for _, k := range sortedKeys(sub) {
			if k != "status" {
				fmt.Fprintf(c.out, " %s=%v", k, sub[k])
			}
		}
		fmt.Fprintln(c.out)
	}
	if h.Status != "ok" {
		return fmt.Errorf("daemon is %s", h.Status)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// batch applies a multi-op mutation file (`ihctl batch -f ops.json`).
// The file is either {"ops":[...]} or a bare op array; every op lands
// in one journal entry and one solver settle. Per-op outcomes are
// printed either way; a partial application exits non-zero.
func (c command) batch(rest []string) error {
	if len(rest) != 2 || rest[0] != "-f" {
		return fmt.Errorf("usage: ihctl batch -f <ops.json>")
	}
	doc, err := os.ReadFile(rest[1])
	if err != nil {
		return err
	}
	var ops []api.BatchOp
	var wrapped api.Batch
	if err := json.Unmarshal(doc, &wrapped); err == nil && len(wrapped.Ops) > 0 {
		ops = wrapped.Ops
	} else if err := json.Unmarshal(doc, &ops); err != nil {
		return fmt.Errorf("parse %s: %w", rest[1], err)
	}
	res, err := c.api.Batch(c.ctx, c.on("/batch"), ops)
	for i, r := range res.Results {
		line := fmt.Sprintf("  %2d %-12s %s", i, r.Op, r.Status)
		if r.Error != "" {
			line += "  " + r.Error
		}
		fmt.Fprintln(c.out, line)
	}
	if err == nil {
		fmt.Fprintf(c.out, "%d op(s) applied in %d solver settle(s)\n", len(ops), res.SolverSettles)
	}
	return err
}

// renderSolverStats prints one solver snapshot, prefixing each line
// (fleet output uses the host name).
func (c command) renderSolverStats(prefix string, st fabric.SolverStats) {
	coalesce := 1.0
	if st.Solves > 0 {
		coalesce = float64(st.Mutations) / float64(st.Solves)
	}
	fmt.Fprintf(c.out, "%scomponents: %d (largest %d of %d flows)\n",
		prefix, st.Components, st.LargestComponent, st.Flows)
	fmt.Fprintf(c.out, "%ssolves: %d (+%d noop)  rounds: %d\n",
		prefix, st.Solves, st.NoopSolves, st.Rounds)
	fmt.Fprintf(c.out, "%sdirty region: %d components / %d flows solved, %d flows skipped\n",
		prefix, st.ComponentsSolved, st.FlowsSolved, st.FlowsSkipped)
	fmt.Fprintf(c.out, "%smutations: %d (%d batched in %d batches, coalesce %.1fx)\n",
		prefix, st.Mutations, st.BatchedMutations, st.Batches, coalesce)
}

// toFile renders a response body by writing it to a file, reporting
// what landed where.
func (c command) toFile(path, what string) func([]byte) error {
	return func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "wrote %s (%d bytes) to %s\n", what, len(data), path)
		return nil
	}
}

func (c command) prettyJSON(data []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		_, err = c.out.Write(data)
		return err
	}
	buf.WriteByte('\n')
	_, err := buf.WriteTo(c.out)
	return err
}

func (c command) prettyTopology(t api.Topology) error {
	kinds := map[string]int{}
	for _, c := range t.Components {
		kinds[c.Kind]++
	}
	classes := map[string]int{}
	for _, l := range t.Links {
		classes[l.Class]++
	}
	fmt.Fprintf(c.out, "host %q: %d components, %d links\n", t.Name, len(t.Components), len(t.Links))
	fmt.Fprintf(c.out, "  components: %v\n  link classes: %v\n", kinds, classes)
	return nil
}

// prettyReport prints the usage report: the five busiest links, then
// each tenant's usage by link class, in tenant order.
func (c command) prettyReport(r api.Report) error {
	fmt.Fprintf(c.out, "virtual time: %dns\n", r.VirtualTimeNs)
	fmt.Fprintf(c.out, "congested links: %v\n", r.Congested)
	fmt.Fprintln(c.out, "busiest links:")
	// Top 5 by utilization.
	for i := 0; i < 5; i++ {
		best, idx := -1.0, -1
		for j, l := range r.Links {
			if l.Utilization > best {
				best, idx = l.Utilization, j
			}
		}
		if idx < 0 {
			break
		}
		fmt.Fprintf(c.out, "  %-48s %5.1f%%\n", r.Links[idx].ID, best*100)
		r.Links[idx].Utilization = -2
	}
	for _, t := range sortedKeys(r.Tenants) {
		fmt.Fprintf(c.out, "tenant %s: %v\n", t, r.Tenants[t])
	}
	return nil
}

func (c command) prettyHosts(hosts []api.FleetHost) error {
	fmt.Fprintf(c.out, "%-20s %14s %9s %8s %11s  %s\n",
		"HOST", "VTIME_NS", "PRESSURE", "TENANTS", "DETECTIONS", "STATUS")
	for _, h := range hosts {
		status := "ok"
		if h.Quarantined != "" {
			status = "quarantined: " + h.Quarantined
		}
		fmt.Fprintf(c.out, "%-20s %14d %8.1f%% %8d %11d  %s\n",
			h.Name, h.VirtualTimeNs, h.Pressure*100, h.Tenants, h.Detections, status)
	}
	return nil
}
