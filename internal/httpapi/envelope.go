package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"repro/internal/api"
	"repro/internal/fleet"
)

// StatusClientClosedRequest reports that the client went away before
// the server finished (nginx's 499 convention). Handlers that abort a
// long operation on r.Context() cancellation return it instead of
// writing a partial body.
const StatusClientClosedRequest = 499

// codes maps an HTTP status to its envelope code; every other status
// is "internal", so every error path speaks the same contract.
var codes = map[int]string{
	http.StatusBadRequest:            api.CodeBadRequest,
	http.StatusUnauthorized:          api.CodeUnauthorized,
	http.StatusNotFound:              api.CodeNotFound,
	http.StatusConflict:              api.CodeConflict,
	http.StatusRequestEntityTooLarge: api.CodePayloadTooLarge,
	StatusClientClosedRequest:        api.CodeCanceled,
	http.StatusServiceUnavailable:    api.CodeUnavailable,
}

// apiError is a failed request: the status its envelope answers with,
// the cause, and the envelope's optional endpoint-specific details.
type apiError struct {
	status  int
	err     error
	details any
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// fail attaches the answering status to err.
func fail(status int, err error) error { return &apiError{status: status, err: err} }

// writeJSON is the server's one JSON encoder: every JSON body, a
// route's value or an error envelope, is written here.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders err in the v1 envelope. An *apiError in its chain
// supplies the status and details; any other error is a 500. A body
// that blew the mux's MaxBytesReader cap surfaces as a decode error
// deep inside whatever handler was reading it; detecting
// *http.MaxBytesError here rewrites that to the 413 it really is, in
// one place instead of every decode site.
func writeErr(w http.ResponseWriter, err error) {
	e := &apiError{status: http.StatusInternalServerError, err: err}
	errors.As(err, &e)
	status := e.status
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	code, ok := codes[status]
	if !ok {
		code = api.CodeInternal
	}
	writeJSON(w, status, api.ErrorBody{Error: api.ErrorDetail{Code: code, Message: e.err.Error(), Details: e.details}})
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

// hostHandler serves one request; h is the resolved host on host
// routes and nil on fleet routes.
type hostHandler func(w http.ResponseWriter, r *http.Request, h *fleet.Host)

// endpoint is what a route serves: its handler and its declared
// response type. Resp is nil on the streaming and raw-byte routes,
// which write their own bodies.
type endpoint struct {
	Handler hostHandler
	Resp    reflect.Type
}

// hostJSON adapts a typed host handler: its value becomes the JSON
// body with the route's success status, its error the envelope. It is
// the one place a route's reply is written.
func hostJSON[T any](status int, fn func(*http.Request, *fleet.Host) (T, error)) endpoint {
	return endpoint{
		Handler: func(w http.ResponseWriter, r *http.Request, h *fleet.Host) {
			v, err := fn(r, h)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeJSON(w, status, v)
		},
		Resp: reflect.TypeFor[T](),
	}
}

// fleetJSON adapts a typed fleet handler like hostJSON.
func fleetJSON[T any](status int, fn func(*http.Request) (T, error)) endpoint {
	return hostJSON(status, func(r *http.Request, _ *fleet.Host) (T, error) { return fn(r) })
}

// raw wraps a handler that writes its own body.
func raw(fn hostHandler) endpoint { return endpoint{Handler: fn} }

// route is one row of a route table. Pattern is the path below
// api.Prefix (net/http ServeMux syntax, wildcards included) — for the
// host table, below the host's mount point. The tables are the single
// source of truth for Handler construction, the completeness tests,
// the golden test's response types, and the README's API table.
type route struct {
	Method  string
	Pattern string
	Lock    lockMode
	endpoint
}

// Path returns the route's full versioned path.
func (rt route) Path() string { return api.Prefix + rt.Pattern }

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

// mountRoutes registers the table on mux under api.Prefix, wrapping
// each handler in the route's body cap and the requested lock via
// wrap, and answers every other path with the envelope 404 instead of
// net/http's plain-text one.
func mountRoutes(mux *http.ServeMux, routes []route, wrap func(lockMode, http.HandlerFunc) http.HandlerFunc) {
	for _, rt := range routes {
		h := wrap(rt.Lock, func(w http.ResponseWriter, r *http.Request) { rt.Handler(w, r, nil) })
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
	writeErr(w, fail(http.StatusNotFound, fmt.Errorf("no such endpoint %s %s", r.Method, r.URL.Path)))
}
