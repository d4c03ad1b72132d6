package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubcommands runs every subcommand in-process and checks its exit
// status and one line that defines its report.
func TestSubcommands(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args []string
		code int
		line string
	}{
		{[]string{"-inject", "link-degradation", "-train", "2"}, 0,
			"correct: the classifier recovered the injected fault type"},
		{[]string{"ping", "-src", "gpu0", "-dst", "nic0", "-count", "2"}, 0,
			"gpu0 -> nic0: 2 sent, 0 lost"},
		{[]string{"ping", "-count", "2", "-fail", "gpu0->socket0.rootport1"}, 2,
			"  2 probe(s) lost"},
		{[]string{"traceroute", "-degrade", "pcieswitch0->nic0"}, 0,
			"trace gpu0 -> socket0.dimm0_0 (4 hops)"},
		{[]string{"perf", "-tenant", "kv"}, 0,
			"  efficiency vs path capacity: 100.0%"},
		{[]string{"sniff", "-duration", "100us", "-tenant", "kv", "-max", "1"}, 0,
			"captured "},
		{[]string{"topo", "-paths", "gpu0,nic0"}, 0,
			"  sockets: [0 1], aggregate memory bandwidth 480.0GB/s"},
		{[]string{"topo", "-hostfile", "../../hosts/lab-box.json"}, 0,
			"preset lab-box: 12 components, 22 directed links"},
		{[]string{"experiments", "-run", "E1"}, 0,
			"E1 — Figure 1 link classes: measured vs paper envelope (two-socket host)"},
		{[]string{"trace", "--chrome", chrome, "-duration", "300us"}, 0,
			"open in about://tracing (Chrome) or https://ui.perfetto.dev"},
		{[]string{"replay", "-scenario", "../../scenarios/colocation-guarantee.json"}, 0,
			"deterministic: "},
		{[]string{"drill", "-v", "../../scenarios/silent-degradation.json"}, 0,
			"      top_suspect                  ok       top suspect nic0->pcieswitch0"},
		{[]string{"fuzz", "-seed", "2", "-events", "20", "-dur", "1ms", "-preset", "minimal"}, 0,
			"PASS  seed 2    20 events"},
		{[]string{"ping", "-src", "gpu0", "-dst", "nowhere"}, 1, ""},
		{[]string{"topo", "-preset", "warp-core"}, 1, ""},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			var out bytes.Buffer
			if code := run(tc.args, &out, io.Discard); code != tc.code {
				t.Fatalf("exit %d, want %d; stdout:\n%s", code, tc.code, out.String())
			}
			if tc.line == "" {
				return
			}
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(l, tc.line) {
					return
				}
			}
			t.Fatalf("no line starting %q in:\n%s", tc.line, out.String())
		})
	}
}

// TestBadInvocationExits2: an unknown subcommand or a stray positional
// argument prints the usage, which lists the subcommands, and exits 2
// without running anything — a typo must not fall through to the
// classifier demo.
func TestBadInvocationExits2(t *testing.T) {
	for _, args := range [][]string{
		{"tracerout"},
		{"bogus-subcommand", "-inject", "link-degradation"},
		{"-train", "1", "stray"},
		{"ping", "gpu0", "nic0"},
		{"topo", "-json", "extra"},
		{"replay", "a.json", "b.json"},
		{"replay", "-scenario", "drill.json", "extra.json"},
		{"drill"},
		{"fuzz", "stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, out.String())
		}
		for _, sc := range subcommands {
			if !strings.Contains(errOut.String(), "  "+sc.name+" ") {
				t.Errorf("%q: usage does not list %q:\n%s", args, sc.name, errOut.String())
			}
		}
	}
}

// TestFuzzReproLineRoundTrip: the printed `or:` line, parsed by the
// fuzz flag set, gives back the chaos config of the failing seed.
func TestFuzzReproLineRoundTrip(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-seed", "3", "-events", "150", "-dur", "10ms", "-preset", "minimal", "-fleet", "3"},
		{"-seed", "9", "-seeds", "4", "-events", "150", "-dur", "10ms", "-preset", "minimal",
			"-fleet", "3", "-workers", "2", "-vs-controller", "-remedy-deadline", "3ms", "-mode", "strict"},
	} {
		f := newFuzzFlags()
		if err := f.fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		want := f.cfg
		want.Seed += 2
		line := f.reproLine(want.Seed)
		words := strings.Fields(line)
		if len(words) < 2 || words[0] != "ihdiag" || words[1] != "fuzz" {
			t.Fatalf("repro line %q does not start with ihdiag fuzz", line)
		}
		g := newFuzzFlags()
		if err := g.fs.Parse(words[2:]); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if g.cfg != want {
			t.Errorf("%q parses to\n%+v\nwant\n%+v", line, g.cfg, want)
		}
	}
}
