// Command storeprobe times the durable store layer in-process on a
// recorded journal, for the benchmark's traced runs:
//
//	storeprobe -journal journal.json -config store/config.json -dir probe
//
// It times store.Open plus Bootstrap, then (*store.Store).AppendEntry
// for each entry under both sync policies (cycling through the journal
// until maxAppends records), then Recover of a store holding the journal
// (at most maxReplay entries of it) and one SaveSnapshot of the recovered
// session. It prints one JSON object on stdout; the benchmark computes
// percentiles from the raw append times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/snap"
	"repro/internal/store"
)

type result struct {
	Entries    int                  `json:"entries"`
	OpenMs     float64              `json:"open_ms"`
	AppendUs   map[string][]float64 `json:"append_us"`
	SnapshotMs float64              `json:"snapshot_ms"`
	RecoverMs  float64              `json:"recover_ms"`
	Replayed   int                  `json:"replayed"`
}

func main() {
	journalPath := flag.String("journal", "", "journal JSON, as GET /api/v1/journal serves it")
	configPath := flag.String("config", "", "the daemon store's config.json")
	dir := flag.String("dir", "", "directory for the probe's own stores (created; must not exist)")
	flag.Parse()
	if err := probe(*journalPath, *configPath, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "storeprobe:", err)
		os.Exit(1)
	}
}

// Probe sizes: enough appends for a steady p99 under fsync, and a
// recovery that stays within seconds on the largest journals.
const (
	maxAppends = 2000
	maxReplay  = 5000
)

func probe(journalPath, configPath, dir string) error {
	var cfg snap.Config
	if err := readJSON(configPath, &cfg); err != nil {
		return err
	}
	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	j, err := snap.ReadJournal(f)
	f.Close()
	if err != nil {
		return err
	}
	if j.Len() == 0 {
		return fmt.Errorf("%s holds no entries", journalPath)
	}
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("%s already exists", dir)
	}
	res := result{Entries: j.Len(), AppendUs: map[string][]float64{}}

	for _, sync := range []store.SyncPolicy{store.SyncOS, store.SyncAlways} {
		sess, err := snap.NewSession(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := store.Open(filepath.Join(dir, "append-"+string(sync)), store.Options{Sync: sync})
		if err != nil {
			return err
		}
		if err := st.Bootstrap(sess); err != nil {
			return err
		}
		if sync == store.SyncOS {
			res.OpenMs = ms(time.Since(start))
		}
		lat := make([]float64, maxAppends)
		for i := range lat {
			start := time.Now()
			if err := st.AppendEntry(j.Entries[i%j.Len()]); err != nil {
				return err
			}
			lat[i] = float64(time.Since(start)) / float64(time.Microsecond)
		}
		res.AppendUs[string(sync)] = lat
		sess.Manager().Stop()
		if err := st.Close(); err != nil {
			return err
		}
	}

	// Recovery replays a WAL holding the journal's first entries.
	recDir := filepath.Join(dir, "recover")
	sess, err := snap.NewSession(cfg)
	if err != nil {
		return err
	}
	st, err := store.Open(recDir, store.Options{Sync: store.SyncOS})
	if err != nil {
		return err
	}
	if err := st.Bootstrap(sess); err != nil {
		return err
	}
	for _, e := range j.Entries[:min(j.Len(), maxReplay)] {
		if err := st.AppendEntry(e); err != nil {
			return err
		}
	}
	sess.Manager().Stop()
	if err := st.Close(); err != nil {
		return err
	}
	if st, err = store.Open(recDir, store.Options{Sync: store.SyncOS}); err != nil {
		return err
	}
	start := time.Now()
	recovered, rep, err := st.Recover()
	if err != nil {
		return err
	}
	res.RecoverMs, res.Replayed = ms(time.Since(start)), rep.Replayed

	payload := recovered.BuildPayload()
	start = time.Now()
	if _, err := st.SaveSnapshot(payload); err != nil {
		return err
	}
	res.SnapshotMs = ms(time.Since(start))
	recovered.Manager().Stop()
	if err := st.Close(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
