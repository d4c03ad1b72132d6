package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// errNoRemedy is returned by the remediation endpoints on daemons
// started without the controller.
var errNoRemedy = fmt.Errorf("remediation controller not enabled: start the daemon with -remedy")

// remedyStatusDTO is the closed-loop controller's operator view:
// cumulative accounting, the incident ledger, and the headline MTTR
// percentiles (virtual time, so they are comparable across machines).
type remedyStatusDTO struct {
	Enabled   bool              `json:"enabled"`
	Degraded  bool              `json:"degraded"`
	Stats     remedy.Stats      `json:"stats"`
	MTTRp50Us float64           `json:"mttr_p50_us"`
	MTTRp99Us float64           `json:"mttr_p99_us"`
	Incidents []remedy.Incident `json:"incidents"`
}

func remedyStatus(c *remedy.Controller) remedyStatusDTO {
	mttrs := c.MTTRs()
	return remedyStatusDTO{
		Enabled:   true,
		Degraded:  c.Degraded(),
		Stats:     c.Stats(),
		MTTRp50Us: float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond),
		MTTRp99Us: float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond),
		Incidents: c.Incidents(),
	}
}

// hostController returns the host's remediation controller, writing
// the 404 envelope when remediation is off.
func (s *Server) hostController(w http.ResponseWriter, name string) *remedy.Controller {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return nil
	}
	return s.rem.Controller(name)
}

func (s *Server) getRemedyStatus(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	if c := s.hostController(w, h.Name); c != nil {
		writeJSON(w, http.StatusOK, remedyStatus(c))
	}
}

func (s *Server) getRemedyPolicy(w http.ResponseWriter, _ *http.Request, h *fleet.Host) {
	if c := s.hostController(w, h.Name); c != nil {
		writeJSON(w, http.StatusOK, c.Policy())
	}
}

// putRemedyPolicy swaps the host's rule table. Policies are
// out-of-band configuration — the controller never runs during replay
// — so the swap is not journaled; it still takes the write lock
// because the next Step reads it.
func (s *Server) putRemedyPolicy(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
	c := s.hostController(w, h.Name)
	if c == nil {
		return
	}
	p, err := parsePolicyBody(r.Body)
	if err == nil {
		err = c.SetPolicy(*p)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Policy())
}

// fleetRemedyStatusDTO aggregates the per-host controllers with a
// per-host breakdown (only degraded hosts carry incident lists, to
// keep large-fleet payloads proportional to trouble, not size).
type fleetRemedyStatusDTO struct {
	Enabled   bool                       `json:"enabled"`
	Degraded  bool                       `json:"degraded"`
	Stats     remedy.Stats               `json:"stats"`
	MTTRp50Us float64                    `json:"mttr_p50_us"`
	MTTRp99Us float64                    `json:"mttr_p99_us"`
	Hosts     map[string]remedyStatusDTO `json:"hosts"`
}

func (s *Server) getFleetRemedyStatus(w http.ResponseWriter, _ *http.Request) {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	mttrs := s.rem.MTTRs()
	out := fleetRemedyStatusDTO{
		Enabled:   true,
		Degraded:  s.rem.Degraded(),
		Stats:     s.rem.Stats(),
		MTTRp50Us: float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond),
		MTTRp99Us: float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond),
		Hosts:     make(map[string]remedyStatusDTO, len(s.rem.Hosts())),
	}
	for _, name := range s.rem.Hosts() {
		hs := remedyStatus(s.rem.Controller(name))
		if !hs.Degraded {
			hs.Incidents = nil
		}
		out.Hosts[name] = hs
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getFleetRemedyPolicy(w http.ResponseWriter, _ *http.Request) {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	writeJSON(w, http.StatusOK, s.rem.Policy())
}

func (s *Server) putFleetRemedyPolicy(w http.ResponseWriter, r *http.Request) {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	p, err := parsePolicyBody(r.Body)
	if err == nil {
		err = s.rem.SetPolicy(*p)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.rem.Policy())
}

// parsePolicyBody decodes and validates a policy document via the
// package's canonical parser (defaults applied, rule table checked).
// Body size is already bounded by the mux-level MaxBytesReader cap.
func parsePolicyBody(r io.Reader) (*remedy.Policy, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty policy body")
	}
	// Round-trip through json.Valid first for a crisper error than the
	// parser's.
	if !json.Valid(raw) {
		return nil, fmt.Errorf("policy body is not valid JSON")
	}
	p, err := remedy.ParsePolicy(raw)
	if err != nil {
		return nil, err
	}
	return &p, nil
}
