package snap

import (
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// batchAdmitOp builds an admit op for the minimal preset.
func batchAdmitOp(tenant string, gbps float64) Entry {
	return Entry{Kind: KindAdmit, Tenant: tenant, Targets: []Target{{
		Src: "nic0", Dst: "socket0.dimm0_0", RateBps: float64(topology.GBps(gbps)),
	}}}
}

// TestBatchOneSettle pins the batched mutation API's core contract: a
// batch of N ops triggers exactly one solver settle and lands as
// exactly one journal entry.
func TestBatchOneSettle(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	ops := []Entry{
		batchAdmitOp("kv", 5),
		batchAdmitOp("ml", 3),
		{Kind: KindSetCap, Link: "pcieswitch0->nic0", Tenant: "kv", CapBps: 1e9},
		{Kind: KindWorkload, Workload: "scan", Tenant: "scan"},
	}
	fab := s.Manager().Fabric()
	before := fab.SolverStats()
	entriesBefore := s.Journal().Len()
	results, err := s.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status != "ok" {
			t.Fatalf("op %d: status %q (%s)", i, r.Status, r.Error)
		}
	}
	after := fab.SolverStats()
	if got := after.Solves - before.Solves; got != 1 {
		t.Fatalf("batch of %d ops settled the solver %d times, want exactly 1", len(ops), got)
	}
	if got := s.Journal().Len() - entriesBefore; got != 1 {
		t.Fatalf("batch journaled %d entries, want exactly 1", got)
	}
	last := s.Journal().Entries[s.Journal().Len()-1]
	if last.Kind != KindBatch || len(last.Ops) != len(ops) {
		t.Fatalf("journal tail is %s with %d ops, want batch with %d", last.Kind, len(last.Ops), len(ops))
	}
}

// TestBatchPartialFailure checks the documented abort semantics: the
// first failing op stops the batch, later ops are skipped, and the
// journal records exactly the applied prefix — which must replay
// cleanly and deterministically.
func TestBatchPartialFailure(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	ops := []Entry{
		batchAdmitOp("kv", 5),
		{Kind: KindEvict, Tenant: "ghost"}, // no such tenant: fails
		{Kind: KindSetCap, Link: "pcieswitch0->nic0", Tenant: "kv", CapBps: 1e9},
	}
	results, err := s.ApplyBatch(ops)
	if err == nil {
		t.Fatal("batch with a failing op returned nil error")
	}
	want := []string{"ok", "failed", "skipped"}
	for i, r := range results {
		if r.Status != want[i] {
			t.Fatalf("op %d: status %q, want %q", i, r.Status, want[i])
		}
	}
	last := s.Journal().Entries[s.Journal().Len()-1]
	if last.Kind != KindBatch || len(last.Ops) != 1 {
		t.Fatalf("journal tail is %s with %d ops, want batch with the applied prefix of 1", last.Kind, len(last.Ops))
	}
	if d, err := CheckDeterminism(s.Config(), s.Journal()); err != nil {
		t.Fatal(err)
	} else if d != nil {
		t.Fatal(d)
	}
}

// TestBatchRejectsNonMutation checks that a structurally invalid batch
// is rejected before any state changes: no journal growth, no settle.
func TestBatchRejectsNonMutation(t *testing.T) {
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	fab := s.Manager().Fabric()
	before := fab.SolverStats()
	entriesBefore := s.Journal().Len()
	for _, ops := range [][]Entry{
		{{Kind: KindAdvance, ToNs: 1000}},
		{{Kind: KindPing, Src: "nic0", Dst: "gpu0"}},
		{{Kind: KindBatch, Ops: []Entry{batchAdmitOp("kv", 1)}}},
		{{Kind: KindSetCap, Link: "pcieswitch0->nic0"}}, // missing tenant
		{},
	} {
		if _, err := s.ApplyBatch(ops); err == nil {
			t.Fatalf("batch %v accepted, want rejection", ops)
		}
	}
	if got := s.Journal().Len(); got != entriesBefore {
		t.Fatalf("rejected batches journaled %d entries", got-entriesBefore)
	}
	if after := fab.SolverStats(); after.Solves != before.Solves {
		t.Fatal("rejected batch settled the solver")
	}
}

// TestJournalValidateBatch exercises the journal-level validation of
// batch entries and their op lists.
func TestJournalValidateBatch(t *testing.T) {
	mk := func(e Entry) Journal { return Journal{Entries: []Entry{e}} }
	cases := []struct {
		name string
		j    Journal
		want string // substring of the error, "" for valid
	}{
		{"valid", mk(Entry{Kind: KindBatch, Ops: []Entry{
			batchAdmitOp("kv", 1),
			{Kind: KindSetCap, Link: "l", Tenant: "kv", CapBps: -1},
		}}), ""},
		{"empty", mk(Entry{Kind: KindBatch}), "at least one op"},
		{"nested", mk(Entry{Kind: KindBatch, Ops: []Entry{
			{Kind: KindBatch, Ops: []Entry{batchAdmitOp("kv", 1)}},
		}}), "non-batchable"},
		{"advance-inside", mk(Entry{Kind: KindBatch, Ops: []Entry{
			{Kind: KindAdvance, ToNs: 5},
		}}), "non-batchable"},
		{"malformed-op", mk(Entry{Kind: KindBatch, Ops: []Entry{
			{Kind: KindAdmit, Tenant: "kv"},
		}}), "admit needs tenant and targets"},
		{"set-cap-missing-link", mk(Entry{Kind: KindSetCap, Tenant: "kv"}), "set-cap needs link"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.j.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid journal rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

// batchDrive records a session mixing batches, cap changes and
// advances, returning its config and journal.
func batchDrive(t *testing.T) (Config, Journal) {
	t.Helper()
	s, err := NewSession(testConfig("minimal"))
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error {
			_, err := s.ApplyBatch([]Entry{
				batchAdmitOp("kv", 5),
				{Kind: KindWorkload, Workload: "kv", Tenant: "kv"},
				{Kind: KindWorkload, Workload: "scan", Tenant: "scan"},
			})
			return err
		},
		func() error { return s.Advance(150 * simtime.Microsecond) },
		func() error { return s.SetTenantCap("pcieswitch0->nic0", "kv", 2e9) },
		func() error { return s.Advance(100 * simtime.Microsecond) },
		func() error {
			_, err := s.ApplyBatch([]Entry{
				{Kind: KindEvict, Tenant: "kv"},
				batchAdmitOp("kv", 4),
				{Kind: KindDegrade, Link: "pcieswitch0->nic0", LossFrac: 0.2, ExtraNs: 1000},
			})
			return err
		},
		func() error { return s.Advance(200 * simtime.Microsecond) },
		func() error { return s.SetTenantCap("pcieswitch0->nic0", "kv", -1) }, // clear
		func() error { return s.Advance(200 * simtime.Microsecond) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("batch drive step %d: %v", i, err)
		}
	}
	return s.Config(), s.Journal()
}

// TestBatchReplayDeterminism runs the determinism gate over a journal
// containing batches and cap changes.
func TestBatchReplayDeterminism(t *testing.T) {
	cfg, j := batchDrive(t)
	d, err := CheckDeterminism(cfg, j)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatal(d)
	}
}
