package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// APIPrefix is the versioned mount point of the control plane. Every
// JSON endpoint lives under it; /metrics and /debug/pprof/ keep their
// conventional unversioned paths.
const APIPrefix = "/api/v1"

// StatusClientClosedRequest reports that the client went away before
// the server finished (nginx's 499 convention). Handlers that abort a
// long operation on r.Context() cancellation return it instead of
// writing a partial body.
const StatusClientClosedRequest = 499

// Error codes of the v1 envelope. Every non-2xx response carries
// exactly one of these; the code is a stable, typed contract while
// messages remain free-form.
const (
	CodeBadRequest      = "bad_request"       // 400: malformed input
	CodeUnauthorized    = "unauthorized"      // 401: missing or wrong bearer token
	CodeNotFound        = "not_found"         // 404: no such resource or endpoint
	CodeConflict        = "conflict"          // 409: admission/state conflict
	CodePayloadTooLarge = "payload_too_large" // 413: request body over the route's cap
	CodeCanceled        = "canceled"          // 499: client closed the request
	CodeInternal        = "internal"          // 500: operation failed server-side
	CodeUnavailable     = "unavailable"       // 503: surface not enabled in this mode
)

// ErrorBody is the single typed error envelope of the v1 API:
// {"error":{"code":"...","message":"..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the typed code and human-readable message.
// Details, when present, is endpoint-specific structured context — the
// batch endpoint returns its per-op result array there on partial
// application, so a 409 still tells the client exactly how far the
// batch got.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

// codeForStatus maps an HTTP status to its envelope code; the mapping
// is total so every error path speaks the same contract.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case StatusClientClosedRequest:
		return CodeCanceled
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders err in the v1 envelope with the code implied by the
// status. A body that blew the mux's MaxBytesReader cap surfaces as a
// decode error deep inside whatever handler was reading it; detecting
// *http.MaxBytesError here rewrites that to the 413 it really is, in
// one place instead of every decode site.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, statusForErr(status, err), ErrorBody{Error: ErrorDetail{
		Code:    codeForStatus(statusForErr(status, err)),
		Message: err.Error(),
	}})
}

// writeErrDetails is writeErr with structured endpoint-specific
// context attached to the envelope.
func writeErrDetails(w http.ResponseWriter, status int, err error, details any) {
	writeJSON(w, statusForErr(status, err), ErrorBody{Error: ErrorDetail{
		Code:    codeForStatus(statusForErr(status, err)),
		Message: err.Error(),
		Details: details,
	}})
}

func statusForErr(status int, err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return status
}

// lockMode says which server lock a route runs under.
type lockMode int

const (
	// lockNone routes read through their own synchronization (the obs
	// registry's atomics, the tracer's mutex) and never block on the
	// simulation.
	lockNone lockMode = iota
	// lockRead routes touch only immutable or copy-on-read state.
	lockRead
	// lockWrite routes mutate, or are "reads" that settle lazy fabric
	// accounting.
	lockWrite
)

// route is one row of the server's v1 route table. Pattern is the
// path below APIPrefix (net/http ServeMux syntax, wildcards included);
// the table is the single source of truth for Handler construction,
// the completeness tests, and the README's API table.
type route struct {
	Method  string
	Pattern string
	Lock    lockMode
	Handler http.HandlerFunc
}

// Path returns the route's full versioned path.
func (rt route) Path() string { return APIPrefix + rt.Pattern }

// Request-body caps, enforced by one http.MaxBytesReader wrap in
// mountRoutes — the single choke point for every route, replacing the
// ad-hoc per-handler readers. A body over the cap surfaces as a 413 in
// the typed envelope (see writeErr).
const (
	// DefaultBodyCap bounds every request body: no command document
	// comes close to 1 MB.
	DefaultBodyCap = 1 << 20
	// RestoreBodyCap is the documented larger cap for the restore route,
	// whose body is a full snapshot (state export plus journal).
	RestoreBodyCap = 64 << 20
)

// bodyCap returns the body limit for a route pattern.
func bodyCap(pattern string) int64 {
	if strings.HasSuffix(pattern, "/restore") {
		return RestoreBodyCap
	}
	return DefaultBodyCap
}

// mountRoutes registers the table on mux under APIPrefix, wrapping
// each handler in the route's body cap and the requested lock via
// wrap, and answers every other path with the envelope 404 instead of
// net/http's plain-text one.
func mountRoutes(mux *http.ServeMux, routes []route, wrap func(lockMode, http.HandlerFunc) http.HandlerFunc) {
	for _, rt := range routes {
		h := wrap(rt.Lock, rt.Handler)
		cap := bodyCap(rt.Pattern)
		mux.HandleFunc(rt.Method+" "+rt.Path(), func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, cap)
			}
			h(w, r)
		})
	}
	mux.HandleFunc("/", notFound)
}

func notFound(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s %s", r.Method, r.URL.Path))
}
