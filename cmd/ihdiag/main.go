// Command ihdiag is the offline intra-host diagnostic toolbox. Every
// subcommand builds its own simulated host, so none needs a daemon;
// `ihctl ping|trace|perf` run the §3.1 tools against a live ihnetd.
//
// With no subcommand it demonstrates §3.1 Q3's learned diagnosis: it
// trains the fault classifier on synthetic incidents, injects a fault
// into a fresh host and prints the verdict with its evidence (exit 2
// on a mismatch). The §3.1 tools are ping (exit 2 when a probe is
// lost), traceroute, perf and sniff; they share -preset/-hostfile/-seed,
// background load (-loopback, -mlload) and a fault (-degrade, -fail).
// topo inspects a topology; experiments regenerates the E1-E13 tables.
// trace exports a managed run as Chrome trace_event JSON (Perfetto).
// replay is the determinism gate: it replays a journal, snapshot or
// scenario drill twice and fails if the rolling state hashes disagree.
// drill runs declarative incident drills (scenarios/*.json) and checks
// their assertions, exit 1 when one fails. fuzz runs seeded chaos
// schedules against the full stack under a cross-layer invariant
// oracle (internal/chaos), exit 1 on a violation; with -vs-controller
// the schedule becomes the adversary of the remediation controller,
// which must heal at least -remedy-ratio of the eligible faults within
// -remedy-deadline of virtual time.
// An unknown subcommand or a stray argument prints the usage, exit 2.
//
// Usage:
//
//	ihdiag -inject link-degradation
//	ihdiag -inject ddio-thrash -train 10
//	ihdiag ping -src gpu0 -dst nic0 [-count 10] [-size 64] [-loopback]
//	ihdiag traceroute -src gpu0 -dst socket0.dimm0_0 [-degrade pcieswitch0->nic0]
//	ihdiag perf -src gpu0 -dst nic0 [-duration 1ms] [-tenant kv] [-loopback]
//	ihdiag sniff -duration 1ms -tenant kv [-link pcieswitch0->nic0] [-lost]
//	ihdiag topo -preset two-socket [-links] [-components] [-paths gpu0,nic0] [-json]
//	ihdiag experiments [-run E7] [-seed 7]
//	ihdiag trace --chrome out.json
//	ihdiag trace --chrome out.json -degrade pcieswitch0->nic0 -duration 5ms
//	ihdiag replay -preset two-socket journal.json
//	ihdiag replay snapshot.json
//	ihdiag replay -scenario scenarios/colocation-guarantee.json
//	ihdiag drill -v scenarios/*.json
//	ihdiag fuzz -seed 1 -seeds 20 -events 500
//	ihdiag fuzz -fleet 4 -seed 7
//	ihdiag fuzz -vs-controller -seed 7 -remedy-deadline 2ms
//	ihdiag fuzz -replay chaos-artifacts/chaos-seed-7.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/anomaly"
	"repro/internal/cachesim"
	"repro/internal/diagml"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// A subcommand parses its own flags from args and writes its report to
// w; its error decides the exit status (see run).
type subcommand struct {
	name, summary string
	run           func(args []string, w io.Writer) error
}

var subcommands = []subcommand{
	{"ping", "RTT and loss between two components", runPing},
	{"traceroute", "per-hop latency along the current path", runTraceroute},
	{"perf", "achievable bandwidth and bottleneck hop", runPerf},
	{"sniff", "capture fabric transactions with filters", runSniff},
	{"topo", "inspect a topology preset or host file", runTopo},
	{"experiments", "regenerate the experiment tables", runExperiments},
	{"trace", "export a managed run as Chrome trace_event JSON", runTrace},
	{"replay", "replay a journal twice and compare state hashes", runReplay},
	{"drill", "run incident drills and check their assertions", runDrill},
	{"fuzz", "seeded chaos runs under the invariant oracle", runFuzz},
}

// exitStatus ends ihdiag with a status and no further message: the
// report already says what went wrong (a lost probe, a classifier
// mismatch), or the flag set has printed its error.
type exitStatus int

func (s exitStatus) Error() string { return fmt.Sprintf("exit status %d", int(s)) }

// usageError is a malformed command line: ihdiag prints it with the
// usage and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if cli.MaybeVersion("ihdiag", os.Args[1:]) {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to the subcommand its first word names — or to
// the classifier demo when args is empty or starts with a flag — and
// maps the outcome to an exit status.
func run(args []string, stdout, stderr io.Writer) int {
	prefix, cmd := "ihdiag", classify
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		i := slices.IndexFunc(subcommands, func(sc subcommand) bool { return sc.name == args[0] })
		if i < 0 {
			return badUsage(stderr, fmt.Sprintf("unknown subcommand %q", args[0]))
		}
		prefix, cmd, args = "ihdiag "+args[0], subcommands[i].run, args[1:]
	}
	err := cmd(args, stdout)
	var st exitStatus
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &st):
		return int(st)
	case errors.As(err, &ue):
		return badUsage(stderr, string(ue))
	}
	fmt.Fprintf(stderr, "%s: %v\n", prefix, err)
	return 1
}

// badUsage reports a malformed command line with the usage; exit 2.
func badUsage(stderr io.Writer, msg string) int {
	fmt.Fprintf(stderr, "ihdiag: %s\n", msg)
	usage(stderr)
	return 2
}

// usage lists the invocation forms and the subcommands.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ihdiag [-inject fault] [-train n] [-seed n]")
	fmt.Fprintln(w, "       ihdiag <subcommand> [flags]")
	fmt.Fprintln(w, "\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-12s %s\n", sc.name, sc.summary)
	}
}

// parse parses a subcommand's flags and rejects stray positional
// arguments.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return flagError(err)
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("%s: unexpected argument %q", fs.Name(), fs.Arg(0)))
	}
	return nil
}

// flagError maps a FlagSet.Parse error, which the flag set has already
// printed with its defaults, to the status flag.ExitOnError would give:
// 0 for -h, 2 otherwise.
func flagError(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return exitStatus(0)
	}
	return exitStatus(2)
}

// classify is the default mode: the fault-classifier demo.
func classify(args []string, w io.Writer) error {
	var names []string
	for _, l := range diagml.AllLabels {
		names = append(names, string(l))
	}
	fs := flag.NewFlagSet("ihdiag", flag.ContinueOnError)
	fs.Usage = func() { usage(fs.Output()); fs.PrintDefaults() }
	injectFlag := fs.String("inject", "link-degradation", "fault to inject: "+strings.Join(names, ", "))
	trainN := fs.Int("train", 8, "training incidents per class")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := parse(fs, args); err != nil {
		return err
	}

	var label diagml.Label
	for _, l := range diagml.AllLabels {
		if string(l) == *injectFlag {
			label = l
		}
	}
	if label == "" {
		return fmt.Errorf("unknown fault %q (have %s)", *injectFlag, strings.Join(names, ", "))
	}

	fmt.Fprintf(w, "training on %d synthetic incidents per class ...\n", *trainN)
	train, err := diagml.GenerateDataset(*seed+500, *trainN)
	if err != nil {
		return err
	}
	clf, err := diagml.Train(train, 3)
	if err != nil {
		return err
	}

	// A fresh host with the full monitoring stack.
	engine := simtime.NewEngine(*seed)
	topo := topology.TwoSocketServer()
	fab := fabric.New(topo, engine, fabric.DefaultConfig())
	plat, err := anomaly.New(fab, anomaly.DefaultPairs(topo), anomaly.DefaultConfig())
	if err != nil {
		return err
	}
	_ = plat.Start()
	mon, err := monitor.New(fab, monitor.DefaultOptions())
	if err != nil {
		return err
	}
	_ = mon.Start()
	ddio, err := cachesim.NewManager(fab, cachesim.DefaultConfig())
	if err != nil {
		return err
	}
	engine.RunFor(2 * simtime.Millisecond) // calibrate

	fmt.Fprintf(w, "injecting %q into a fresh host ...\n", label)
	if err := diagml.InjectForDemo(label, fab, ddio, topo, engine.Rand()); err != nil {
		return err
	}
	engine.RunFor(simtime.Millisecond)

	feats := diagml.Extract(fab, plat, mon, ddio)
	fmt.Fprintf(w, "\nlive telemetry features:\n")
	fmt.Fprintf(w, "  rtt inflation   %.2fx\n", feats.RTTInflation)
	fmt.Fprintf(w, "  heartbeat loss  %.1f%%\n", feats.LossFrac*100)
	fmt.Fprintf(w, "  pcie util       %.1f%%\n", feats.MaxPCIeUtil*100)
	fmt.Fprintf(w, "  memory util     %.1f%%\n", feats.MaxMemUtil*100)
	fmt.Fprintf(w, "  upi util        %.1f%%\n", feats.MaxUPIUtil*100)
	fmt.Fprintf(w, "  ddio miss       %.1f%%\n", feats.DDIOMiss*100)
	fmt.Fprintf(w, "  config drift    %.0f alert(s)\n", feats.ConfigDrift)

	v := clf.Classify(feats)
	fmt.Fprintf(w, "\nverdict: %s (confidence %.0f%%, neighbors %v)\n", v.Label, v.Confidence*100, v.Neighbors)
	if v.Label != label {
		fmt.Fprintf(w, "MISMATCH: injected %s\n", label)
		return exitStatus(2)
	}
	fmt.Fprintln(w, "correct: the classifier recovered the injected fault type")
	return nil
}
