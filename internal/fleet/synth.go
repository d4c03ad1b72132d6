package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/snap"
	"repro/internal/topology"
)

// SynthSpec describes a synthetic fleet: N identical recording hosts
// generated in-process, so 10k-host benches and tests do not need 10k
// JSON files in hosts/.
type SynthSpec struct {
	// Hosts is how many hosts to generate. Required.
	Hosts int
	// Preset names the topology.Presets entry every host is built
	// from. Empty means "two-socket".
	Preset string
	// Seed is the base RNG seed; host i gets Seed+i, mirroring
	// LoadDir's discipline, so a spec always yields the same fleet.
	Seed int64
	// Workload, when true, admits one standard tenant per host
	// (nic0 -> any-memory at 8 GB/s, tenant "kv") so every host has
	// live flows to schedule — the benchmark shape.
	Workload bool
}

// Synth generates spec.Hosts deterministic recording hosts named
// synth-00000..synth-NNNNN. Equal specs yield byte-identical fleets:
// names, seeds, and admission order are all derived from the spec.
func Synth(spec SynthSpec) (*Fleet, error) {
	if spec.Hosts <= 0 {
		return nil, fmt.Errorf("fleet: synth needs a positive host count, got %d", spec.Hosts)
	}
	preset := spec.Preset
	if preset == "" {
		preset = "two-socket"
	}
	f := New()
	for i := 0; i < spec.Hosts; i++ {
		name := fmt.Sprintf("synth-%05d", i)
		opts := core.DefaultOptions()
		opts.Seed = spec.Seed + int64(i)
		sess, err := snap.NewSession(snap.Config{Preset: preset, Options: opts})
		if err != nil {
			return nil, fmt.Errorf("fleet: synth host %s: %w", name, err)
		}
		if _, err := f.AddSession(name, sess); err != nil {
			return nil, err
		}
		if spec.Workload {
			if _, err := sess.Admit("kv", []intent.Target{
				{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(8)},
			}); err != nil {
				return nil, fmt.Errorf("fleet: synth workload on %s: %w", name, err)
			}
		}
	}
	return f, nil
}
