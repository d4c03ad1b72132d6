package snap

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func testConfig(preset string) Config {
	return Config{Preset: preset, Options: core.DefaultOptions()}
}

// drive issues a representative command mix valid on every preset:
// admission, workloads, fault injection, config drift, a diagnostic
// probe, and time advancement interleaved throughout.
func drive(t *testing.T, s *Session) {
	t.Helper()
	steps := []func() error{
		func() error {
			_, err := s.Admit("kv", []intent.Target{{
				Src: "nic0", Dst: "socket0.dimm0_0", Rate: topology.GBps(5),
			}})
			return err
		},
		func() error { return s.Advance(300 * simtime.Microsecond) },
		func() error { return s.StartWorkload("scan", "scan", "", "") },
		func() error { return s.Advance(200 * simtime.Microsecond) },
		func() error { return s.DegradeLink("pcieswitch0->nic0", 0.3, 2*simtime.Microsecond) },
		func() error { return s.SetComponentConfig("socket0.llc", topology.ConfigDDIO, "off") },
		func() error { return s.Advance(500 * simtime.Microsecond) },
		func() error {
			_, err := s.Ping("gpu0", "socket0.dimm0_0")
			return err
		},
		func() error { return s.RestoreLink("pcieswitch0->nic0") },
		func() error { return s.Advance(300 * simtime.Microsecond) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("drive step %d: %v", i, err)
		}
	}
}

// tail is the post-snapshot continuation applied to both the original
// and the restored session; equal final hashes prove the snapshot
// captured everything that matters.
func tail(t *testing.T, s *Session) {
	t.Helper()
	steps := []func() error{
		func() error { return s.FailLink("pcieswitch0->nic0") },
		func() error { return s.Advance(400 * simtime.Microsecond) },
		func() error { return s.RestoreLink("pcieswitch0->nic0") },
		func() error { return s.Evict("kv") },
		func() error { return s.Advance(600 * simtime.Microsecond) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("tail step %d: %v", i, err)
		}
	}
}

// TestRoundTripEveryPreset is the acceptance property: for every
// topology preset, restore(snapshot(S)) followed by N more events
// produces the same state hash as the uninterrupted run.
func TestRoundTripEveryPreset(t *testing.T) {
	for _, preset := range topology.PresetNames() {
		t.Run(preset, func(t *testing.T) {
			live, err := NewSession(testConfig(preset))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, live)

			var buf bytes.Buffer
			if err := live.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := StateHash(restored.Manager()), StateHash(live.Manager()); got != want {
				t.Fatalf("restored hash %s != live hash %s", got, want)
			}

			// Diverge-proof continuation: same commands on both.
			tail(t, live)
			tail(t, restored)
			liveHash := StateHash(live.Manager())
			restoredHash := StateHash(restored.Manager())
			if liveHash != restoredHash {
				t.Fatalf("after continuation: uninterrupted %s != resumed %s", liveHash, restoredHash)
			}

			// The continued journals must agree too.
			lj, rj := live.Journal(), restored.Journal()
			if len(lj.Entries) != len(rj.Entries) {
				t.Fatalf("journal lengths diverge: %d vs %d", len(lj.Entries), len(rj.Entries))
			}
			for i := range lj.Entries {
				// Entries hold a slice field; compare via JSON.
				a, _ := json.Marshal(lj.Entries[i])
				b, _ := json.Marshal(rj.Entries[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("journal entry %d diverges: %s vs %s", i, a, b)
				}
			}
		})
	}
}

func TestCheckDeterminism(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s)
	div, err := CheckDeterminism(s.Config(), s.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("unexpected divergence: %v", div)
	}
}

// TestPerturbedJournalDetected re-encodes a snapshot with one journal
// entry altered (checksum recomputed so only the hash check can catch
// it) and expects Restore to refuse.
func TestPerturbedJournalDetected(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	var env Snapshot
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var p Payload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for i := range p.Journal.Entries {
		if p.Journal.Entries[i].Kind == KindAdmit {
			p.Journal.Entries[i].Targets[0].RateBps *= 1.5
			perturbed = true
			break
		}
	}
	if !perturbed {
		t.Fatal("no admit entry to perturb")
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	env.Payload = raw
	env.ChecksumSHA256 = checksum(raw)
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(bytes.NewReader(forged)); err == nil {
		t.Fatal("restore accepted a perturbed journal")
	} else if !strings.Contains(err.Error(), "does not match recorded") {
		t.Fatalf("wrong failure mode: %v", err)
	}
}

func TestCorruptedSnapshotRejected(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Flip one payload character. The envelope still parses (JSON
	// string bodies tolerate letter swaps) but the checksum must not.
	data := buf.Bytes()
	idx := bytes.Index(data, []byte(`"virtual_time_ns"`))
	if idx < 0 {
		t.Fatal("marker not found in snapshot")
	}
	data[idx+1] ^= 0x01
	if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted snapshot accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("wrong failure mode: %v", err)
	}

	// Unknown version is rejected before any checksum math.
	var env Snapshot
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.Version = SnapshotVersion + 1
	raw, _ := json.Marshal(env)
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong failure mode: %v", err)
	}
}

func TestJournalCoalescesAdvances(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Advance(10 * simtime.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	j := s.Journal()
	if j.Len() != 1 {
		t.Fatalf("5 consecutive advances journaled as %d entries, want 1", j.Len())
	}
	if e := j.Entries[0]; e.Kind != KindAdvance || e.ToNs != int64(50*simtime.Microsecond) {
		t.Fatalf("coalesced advance wrong: %+v", e)
	}
}

func TestJournalValidate(t *testing.T) {
	bad := []Journal{
		{Entries: []Entry{{Seq: 1, Kind: KindAdvance}}},                                                                         // non-dense seq
		{Entries: []Entry{{Seq: 0, AtNs: 100, Kind: KindAdvance, ToNs: 50}}},                                                    // advance backwards
		{Entries: []Entry{{Seq: 0, Kind: KindAdmit, Tenant: "t"}}},                                                              // admit without targets
		{Entries: []Entry{{Seq: 0, Kind: KindFail}}},                                                                            // fail without link
		{Entries: []Entry{{Seq: 0, Kind: EntryKind("mystery")}}},                                                                // unknown kind
		{Entries: []Entry{{Seq: 0, AtNs: 100, Kind: KindEvict, Tenant: "t"}, {Seq: 1, AtNs: 50, Kind: KindEvict, Tenant: "t"}}}, // time reversal
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("journal %d validated but should not have", i)
		}
	}
}

// TestReplayAppliesOpBeforeSameInstantEvents pins the op-at-t rule: an
// entry at t that lies ahead of the clock applies before an engine
// event already due at t, and the event still runs at t afterwards.
func TestReplayAppliesOpBeforeSameInstantEvents(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	const at = simtime.Time(50 * simtime.Microsecond)
	nic := s.Manager().Topology().Component("nic0")
	seen := "unset"
	s.Manager().Engine().Schedule(at, func() {
		if v, ok := nic.ConfigValue("order"); ok {
			seen = v
		}
	})
	if err := s.ReplayEntry(Entry{AtNs: int64(at), Kind: KindSetConfig,
		Component: "nic0", Key: "order", Value: "op-first"}); err != nil {
		t.Fatal(err)
	}
	if now := s.Now(); now != at {
		t.Fatalf("clock at %v after the entry, want %v", now, at)
	}
	if seen != "unset" {
		t.Fatalf("the engine event at t ran before the entry (saw %q)", seen)
	}
	if err := s.AdvanceTo(at); err != nil {
		t.Fatal(err)
	}
	if seen != "op-first" {
		t.Fatalf("engine event at t saw %q, want the entry's value", seen)
	}
}

func TestRestoredSessionKeepsJournaling(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s)
	restored, n, err := RoundTrip(s)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("snapshot reported zero bytes")
	}
	before := restored.Journal().Len()
	if err := restored.FailLink("pcieswitch0->nic0"); err != nil {
		t.Fatal(err)
	}
	if got := restored.Journal().Len(); got != before+1 {
		t.Fatalf("restored session did not journal: %d -> %d", before, got)
	}
}

func TestReplayTraceDivergencePoint(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s)
	trace, err := ReplayTrace(s.Config(), s.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Journal().Len() + 1; len(trace) != want {
		t.Fatalf("trace has %d points, want %d", len(trace), want)
	}
	// The final trace point must equal the live session's hash: replay
	// reconstructs the exact same state the recorder reached.
	if got, want := trace[len(trace)-1].Hash, StateHash(s.Manager()); got != want {
		t.Fatalf("trace end %s != live hash %s", got, want)
	}
}

// TestSpanThreading checks the journal<->trace correlation contract:
// commands get deterministic "j<seq>" spans (or a caller-set one), a
// coalescing advance inherits the open advance's span, and the events
// a command's effects emit carry its span.
func TestSpanThreading(t *testing.T) {
	s, err := NewSession(testConfig("two-socket"))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Manager().Obs().Bus.Subscribe()
	if _, err := s.Admit("kv", []intent.Target{{
		Src: "nic0", Dst: "socket0.dimm0_0", Rate: topology.GBps(5),
	}}); err != nil {
		t.Fatal(err)
	}
	s.SetSpan("req-abc")
	if err := s.Advance(100 * simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Coalesces into the previous advance and must share its span.
	if err := s.Advance(100 * simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("kv"); err != nil {
		t.Fatal(err)
	}

	j := s.Journal()
	if j.Len() != 3 {
		t.Fatalf("journal has %d entries, want 3 (advances coalesced)", j.Len())
	}
	if got := j.Entries[0].Span; got != "j0" {
		t.Errorf("admit span %q, want j0", got)
	}
	if got := j.Entries[1].Span; got != "req-abc" {
		t.Errorf("advance span %q, want req-abc", got)
	}
	if got := j.Entries[2].Span; got != "j2" {
		t.Errorf("evict span %q, want j2", got)
	}

	spans := make(map[string]bool)
	for _, be := range sub.Drain() {
		spans[be.Event.Span] = true
	}
	for _, want := range []string{"j0", "req-abc", "j2"} {
		if !spans[want] {
			t.Errorf("no streamed event carries span %q (saw %v)", want, spans)
		}
	}

	// Replay must preserve recorded spans verbatim.
	replayed, err := Replay(s.Config(), j)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range replayed.Journal().Entries {
		if e.Span != j.Entries[i].Span {
			t.Errorf("replay entry %d span %q != recorded %q", i, e.Span, j.Entries[i].Span)
		}
	}
}

// FuzzReadSnapshot: ReadSnapshot (the POST /restore decoder) never
// panics, and a snapshot it accepts carries a valid journal and reads
// back the same after re-encoding. Random bytes seldom pass the
// checksum, so each input is also tried as a payload inside a
// well-formed envelope, which takes the fuzzer into payload decoding.
func FuzzReadSnapshot(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var env Snapshot
		if err := json.Unmarshal(data, &env); err == nil {
			f.Add([]byte(env.Payload))
		}
	}
	f.Add([]byte(`{"journal":{"entries":[{"seq":0,"at_ns":5,"kind":"advance","to_ns":1}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if json.Valid(data) {
			inputs = append(inputs, envelope(data))
		}
		for _, in := range inputs {
			p, err := ReadSnapshot(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if err := p.Journal.Validate(); err != nil {
				t.Fatalf("accepted snapshot has an invalid journal: %v", err)
			}
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("accepted payload does not encode: %v", err)
			}
			if _, err := ReadSnapshot(bytes.NewReader(envelope(raw))); err != nil {
				t.Fatalf("re-encoded snapshot rejected: %v", err)
			}
		}
	})
}

// envelope wraps a payload in a current-format snapshot envelope with
// its checksum. HTML escaping stays off so the payload keeps the bytes
// the checksum covers.
func envelope(payload []byte) []byte {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(Snapshot{Format: SnapshotFormat, Version: SnapshotVersion,
		Payload: payload, ChecksumSHA256: checksum(payload)}); err != nil {
		panic(err)
	}
	return out.Bytes()
}
