package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/fleet"
)

// TestFleetShards: /fleet/shards decodes into the engine's own wire
// shape (the handler encodes fleet.ShardStats directly, so an
// encode/decode round trip is the whole contract).
func TestFleetShards(t *testing.T) {
	want := fleet.ShardStats{
		Shards: []fleet.ShardStat{
			{Index: 0, Hosts: 64, VirtualTimeNs: 4_000_000, InnerEpochs: 4, HostsAdvanced: 256, RollupRefolds: 2},
			{Index: 1, Hosts: 64, Quarantined: 1, VirtualTimeNs: 4_000_000, InnerEpochs: 4, HostsAdvanced: 252, RollupRefolds: 1, Dirty: true},
		},
		OuterEpochs:       1,
		InnerEpochNs:      1_000_000,
		OuterEvery:        4,
		WorkersPerShard:   2,
		RollupCacheHits:   7,
		RollupCacheMisses: 3,
	}
	var gotPath string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		json.NewEncoder(w).Encode(want)
	}))
	defer ts.Close()

	var got fleet.ShardStats
	if err := New(ts.URL).Get(context.Background(), "/fleet/shards", &got); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/api/v1/fleet/shards" {
		t.Errorf("path %q, want /api/v1/fleet/shards", gotPath)
	}
	if len(got.Shards) != 2 || got.Shards[1].Quarantined != 1 || !got.Shards[1].Dirty ||
		got.OuterEpochs != 1 || got.OuterEvery != 4 || got.WorkersPerShard != 2 ||
		got.RollupCacheHits != 7 || got.RollupCacheMisses != 3 {
		t.Fatalf("decoded %+v", got)
	}
}
