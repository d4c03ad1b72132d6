package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client calls one ihnetd daemon. It is the one place client-side
// HTTP mechanics live: ihctl and tests build on it instead of
// hand-rolling requests.
//
// Paths are given relative to Prefix ("/topology", not
// "/api/v1/topology"), so a client survives a future version bump by
// changing one constant. Every call takes a context; cancel it and the
// request aborts client-side while the server, which watches the same
// disconnect, answers any later writes with its 499 envelope.
type Client struct {
	base  string
	token string // bearer token sent on every request; "" sends none
	http  *http.Client
}

// New builds a client for the daemon at base ("http://host:port" or
// just "host:port").
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient}
}

// SetToken arms bearer-token auth: every subsequent request (streams
// included) carries "Authorization: Bearer <token>". An empty token
// clears it.
func (c *Client) SetToken(token string) { c.token = token }

// authorize stamps the bearer token on a request, if one is set.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// Error is a non-2xx response decoded from the v1 envelope. A body
// that is not the envelope (a proxy's error page, say) leaves Code and
// Message empty.
type Error struct {
	Status int // HTTP status code
	// ErrorDetail is the envelope's code, message and, when present,
	// its endpoint-specific details (decoded as generic JSON).
	ErrorDetail
}

func (e *Error) Error() string {
	switch {
	case e.Code != "" && e.Message != "":
		return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.Status)
	case e.Message != "":
		return fmt.Sprintf("%s (http %d)", e.Message, e.Status)
	default:
		return fmt.Sprintf("http %d", e.Status)
	}
}

// decodeError turns an error body into *Error.
func decodeError(status int, data []byte) error {
	var env ErrorBody
	_ = json.Unmarshal(data, &env)
	return &Error{Status: status, ErrorDetail: env.Error}
}

// Get fetches path and decodes the response into out (see Do).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.Do(ctx, http.MethodGet, path, nil, out)
}

// Post sends in and decodes the response into out (see Do).
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	return c.Do(ctx, http.MethodPost, path, in, out)
}

// Do runs one request against the versioned API. in is the request
// body: nil for none, []byte sent as is (a snapshot file, say), or any
// value to encode as JSON. out may be nil (discard the body), *[]byte
// (the raw body — snapshots, journals), or any JSON-decodable value.
// A non-2xx answer is an *Error.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var rd io.Reader
	switch v := in.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(v)
	default:
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+Prefix+path, rd)
	if err != nil {
		return err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, data)
	}
	switch dst := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*dst = data
		return nil
	default:
		return json.Unmarshal(data, out)
	}
}

// Batch posts a multi-op mutation envelope to a host's batch route
// (path is "/batch" on a one-host daemon, or the route under
// /fleet/hosts/{host}). On partial application the daemon answers 409
// with the result inside the envelope details; Batch decodes it so
// callers get per-op outcomes alongside the error.
func (c *Client) Batch(ctx context.Context, path string, ops []BatchOp) (BatchResult, error) {
	var out BatchResult
	err := c.Post(ctx, path, Batch{Ops: ops}, &out)
	var e *Error
	if errors.As(err, &e) && e.Details != nil {
		if raw, merr := json.Marshal(e.Details); merr == nil {
			_ = json.Unmarshal(raw, &out)
		}
	}
	return out, err
}
