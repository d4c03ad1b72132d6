package apiclient

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/remedy"
)

// Put sends in as a JSON body and decodes the response into out.
func (c *Client) Put(ctx context.Context, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.do(ctx, http.MethodPut, path, body, out)
}

// RemedyStatus is the typed per-host /remedy/status document: the
// controller's cumulative accounting, headline MTTR percentiles
// (virtual time), and incident ledger.
type RemedyStatus struct {
	Enabled   bool              `json:"enabled"`
	Degraded  bool              `json:"degraded"`
	Stats     remedy.Stats      `json:"stats"`
	MTTRp50Us float64           `json:"mttr_p50_us"`
	MTTRp99Us float64           `json:"mttr_p99_us"`
	Incidents []remedy.Incident `json:"incidents"`
}

// FleetRemedyStatus is the typed /fleet/remedy/status document — the
// fleet-wide aggregate plus the per-host breakdown.
type FleetRemedyStatus struct {
	Enabled   bool                    `json:"enabled"`
	Degraded  bool                    `json:"degraded"`
	Stats     remedy.Stats            `json:"stats"`
	MTTRp50Us float64                 `json:"mttr_p50_us"`
	MTTRp99Us float64                 `json:"mttr_p99_us"`
	Hosts     map[string]RemedyStatus `json:"hosts"`
}

// FleetRemedyStatus fetches and decodes /fleet/remedy/status (every
// boot mode serves it; a single-host daemon is a one-host fleet).
func (c *Client) FleetRemedyStatus(ctx context.Context) (FleetRemedyStatus, error) {
	var st FleetRemedyStatus
	err := c.Get(ctx, "/fleet/remedy/status", &st)
	return st, err
}
