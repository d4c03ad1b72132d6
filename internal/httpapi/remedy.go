package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// errNoRemedy is returned by the remediation endpoints on daemons
// started without the controller.
var errNoRemedy = fmt.Errorf("remediation controller not enabled: start the daemon with -remedy")

// remedySummary is the accounting of one controller or of the fleet.
func remedySummary(degraded bool, st remedy.Stats, mttrs []simtime.Duration) api.RemedySummary {
	return api.RemedySummary{
		Enabled:   true,
		Degraded:  degraded,
		Stats:     st,
		MTTRp50Us: float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond),
		MTTRp99Us: float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond),
	}
}

func remedyStatus(c *remedy.Controller) api.RemedyStatus {
	return api.RemedyStatus{
		RemedySummary: remedySummary(c.Degraded(), c.Stats(), c.MTTRs()),
		Incidents:     c.Incidents(),
	}
}

// needRemedy guards a remediation route: on a daemon started without
// the controller it answers the 404 envelope, so the handler behind it
// can rely on s.rem.
func (s *Server) needRemedy(e endpoint) endpoint {
	next := e.Handler
	e.Handler = func(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
		if s.rem == nil {
			writeErr(w, fail(http.StatusNotFound, errNoRemedy))
			return
		}
		next(w, r, h)
	}
	return e
}

func (s *Server) getRemedyStatus(_ *http.Request, h *fleet.Host) (api.RemedyStatus, error) {
	return remedyStatus(s.rem.Controller(h.Name)), nil
}

func (s *Server) getRemedyPolicy(_ *http.Request, h *fleet.Host) (remedy.Policy, error) {
	return s.rem.Controller(h.Name).Policy(), nil
}

// putRemedyPolicy swaps the host's rule table. Policies are
// out-of-band configuration — the controller never runs during replay
// — so the swap is not journaled; it still takes the write lock
// because the next Step reads it.
func (s *Server) putRemedyPolicy(r *http.Request, h *fleet.Host) (remedy.Policy, error) {
	c := s.rem.Controller(h.Name)
	if err := setPolicy(r, c.SetPolicy); err != nil {
		return remedy.Policy{}, err
	}
	return c.Policy(), nil
}

func (s *Server) getFleetRemedyStatus(*http.Request) (api.FleetRemedyStatus, error) {
	out := api.FleetRemedyStatus{
		RemedySummary: remedySummary(s.rem.Degraded(), s.rem.Stats(), s.rem.MTTRs()),
		Hosts:         make(map[string]api.RemedyStatus, len(s.rem.Hosts())),
	}
	for _, name := range s.rem.Hosts() {
		hs := remedyStatus(s.rem.Controller(name))
		if !hs.Degraded {
			hs.Incidents = nil
		}
		out.Hosts[name] = hs
	}
	return out, nil
}

func (s *Server) getFleetRemedyPolicy(*http.Request) (remedy.Policy, error) {
	return s.rem.Policy(), nil
}

func (s *Server) putFleetRemedyPolicy(r *http.Request) (remedy.Policy, error) {
	if err := setPolicy(r, s.rem.SetPolicy); err != nil {
		return remedy.Policy{}, err
	}
	return s.rem.Policy(), nil
}

// setPolicy decodes and validates the request's policy document via
// the package's canonical parser (defaults applied, rule table
// checked) and installs it; a bad document or rule table is a 400.
// Body size is already bounded by the mux-level MaxBytesReader cap.
func setPolicy(r *http.Request, set func(remedy.Policy) error) error {
	raw, err := io.ReadAll(r.Body)
	switch {
	case err != nil:
	case len(raw) == 0:
		err = fmt.Errorf("empty policy body")
	case !json.Valid(raw):
		// Checked first for a crisper error than the parser's.
		err = fmt.Errorf("policy body is not valid JSON")
	default:
		var p remedy.Policy
		if p, err = remedy.ParsePolicy(raw); err == nil {
			err = set(p)
		}
	}
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	return nil
}
