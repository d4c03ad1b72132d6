package snap

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// benchDrive builds a realistic mid-run state: one tenant, one
// workload, a fault cycle, and a few milliseconds of virtual time.
func benchDrive(s *Session) error {
	steps := []func() error{
		func() error {
			_, err := s.Admit("kv", []intent.Target{{
				Src: "nic0", Dst: "socket0.dimm0_0", Rate: topology.GBps(5),
			}})
			return err
		},
		func() error { return s.StartWorkload("scan", "scan", "", "") },
		func() error { return s.Advance(time500us) },
		func() error { return s.DegradeLink("pcieswitch0->nic0", 0.3, 2*simtime.Microsecond) },
		func() error { return s.Advance(time500us) },
		func() error { return s.RestoreLink("pcieswitch0->nic0") },
		func() error { return s.Advance(2 * simtime.Millisecond) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

const time500us = 500 * simtime.Microsecond

// BenchmarkSnapshotRoundTrip measures a full checkpoint cycle on the
// two-socket preset: export + encode + decode + replay + verify. The
// replay cost dominates and grows with journal length, which is the
// honest number — restores replay history.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	s, err := NewSession(testConfig("two-socket"))
	if err != nil {
		b.Fatal(err)
	}
	if err := benchDrive(s); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Restore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode isolates export + encode, the cost a daemon
// pays per periodic checkpoint while staying live.
func BenchmarkSnapshotEncode(b *testing.B) {
	s, err := NewSession(testConfig("two-socket"))
	if err != nil {
		b.Fatal(err)
	}
	if err := benchDrive(s); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkAdmit measures one admission and its eviction through the
// journaled session on the two-socket preset with 16 resident tenants
// and flows on the fabric: compile (candidate pathways to the four
// DIMMs of memory:socket0), schedule, arbitrate, view, journal. It is
// the per-host cost a fleet placement pays on its chosen host.
func BenchmarkAdmit(b *testing.B) {
	s, err := NewSession(testConfig("two-socket"))
	if err != nil {
		b.Fatal(err)
	}
	srcs := []string{"nic0", "nic1", "gpu0", "gpu1", "ssd0", "ssd1"}
	for i := 0; i < 16; i++ {
		if _, err := s.Admit(fmt.Sprintf("r%02d", i), []intent.Target{{
			Src: topology.CompID(srcs[i%len(srcs)]), Dst: topology.CompID(fmt.Sprintf("memory:socket%d", i%2)),
			Rate: topology.GBps(0.5),
		}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.StartWorkload("scan", "r00", "", ""); err != nil {
		b.Fatal(err)
	}
	if err := s.Advance(time500us); err != nil {
		b.Fatal(err)
	}
	targets := []intent.Target{{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(1)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Admit("bench", targets); err != nil {
			b.Fatal(err)
		}
		if err := s.Evict("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
