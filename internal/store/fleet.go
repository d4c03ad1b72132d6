package store

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// hostNamePattern keeps host directory names path-safe.
var hostNamePattern = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// FleetStore roots one Store per host under <dir>/hosts/<name>, all
// sharing a single content-addressed chunk pool at <dir>/chunks — the
// dedup that makes a fleet checkpoint incremental: identical blobs
// (unchanged host states, common journal prefixes) are stored once for
// the whole fleet, not once per host.
type FleetStore struct {
	dir  string
	opts Options
	pool *chunkPool

	mu    sync.Mutex
	hosts map[string]*Store
}

// OpenFleet opens (or initializes) a fleet store directory.
func OpenFleet(dir string, opts Options) (*FleetStore, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "hosts"), 0o755); err != nil {
		return nil, fmt.Errorf("store: create fleet hosts dir: %w", err)
	}
	pool, err := openChunkPool(filepath.Join(dir, "chunks"), true, opts.Sync == SyncAlways)
	if err != nil {
		return nil, err
	}
	return &FleetStore{dir: dir, opts: opts, pool: pool, hosts: map[string]*Store{}}, nil
}

// SingleHost wraps an open store as a one-host fleet store rooted at
// the store's own directory: Host(name) returns it and no other host
// can be opened. A single-host daemon keeps its store at the root of
// its store directory this way while serving as a one-host fleet.
func SingleHost(name string, s *Store) *FleetStore {
	return &FleetStore{dir: s.dir, opts: s.opts, hosts: map[string]*Store{name: s}}
}

// Dir returns the fleet store's root directory.
func (f *FleetStore) Dir() string { return f.dir }

// Host opens (or returns the already-open) per-host store.
func (f *FleetStore) Host(name string) (*Store, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.hosts[name]; ok {
		return s, nil
	}
	if f.pool == nil {
		return nil, fmt.Errorf("store: single-host store has no host %q", name)
	}
	if !hostNamePattern.MatchString(name) {
		return nil, fmt.Errorf("store: host name %q is not storable", name)
	}
	s, err := open(filepath.Join(f.dir, "hosts", name), f.opts, f.pool)
	if err != nil {
		return nil, err
	}
	f.hosts[name] = s
	return s, nil
}

// FleetStats aggregates per-host store stats for /healthz.
type FleetStats struct {
	Dir              string     `json:"dir"`
	Sync             SyncPolicy `json:"sync"`
	Hosts            int        `json:"hosts"`
	WalRecords       uint64     `json:"wal_records"`
	WalSegments      int        `json:"wal_segments"`
	SnapshottedHosts int        `json:"snapshotted_hosts"`
	// SnapshotSeq is the newest checkpoint sequence across hosts.
	SnapshotSeq uint64 `json:"snapshot_seq"`
}

// Stats sums occupancy across every open host store.
func (f *FleetStore) Stats() FleetStats {
	f.mu.Lock()
	hosts := make([]*Store, 0, len(f.hosts))
	for _, s := range f.hosts {
		hosts = append(hosts, s)
	}
	f.mu.Unlock()
	st := FleetStats{Dir: f.dir, Sync: f.opts.Sync, Hosts: len(hosts)}
	for _, s := range hosts {
		hs := s.Stats()
		st.WalRecords += hs.WalRecords
		st.WalSegments += hs.WalSegments
		if hs.SnapshotSeq > 0 {
			st.SnapshottedHosts++
		}
		st.SnapshotSeq = max(st.SnapshotSeq, hs.SnapshotSeq)
	}
	return st
}

// Close releases every open host store.
func (f *FleetStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, s := range f.hosts {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
