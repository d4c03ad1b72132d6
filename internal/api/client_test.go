package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPathsAreVersioned(t *testing.T) {
	var gotPath, gotMethod string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath, gotMethod = r.URL.Path, r.Method
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	var out map[string]bool
	if err := c.Get(context.Background(), "/topology", &out); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/api/v1/topology" || gotMethod != http.MethodGet || !out["ok"] {
		t.Fatalf("request was %s %s, decoded %v", gotMethod, gotPath, out)
	}
	if err := c.Do(context.Background(), http.MethodDelete, "/tenants/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/api/v1/tenants/x" || gotMethod != http.MethodDelete {
		t.Fatalf("delete was %s %s", gotMethod, gotPath)
	}
}

// TestBareHostBase: "host:port" without a scheme works, matching
// ihctl's -addr flag.
func TestBareHostBase(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c := New(ts.Listener.Addr().String())
	if err := c.Get(context.Background(), "/healthz", nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":{"code":"conflict","message":"no capacity"}}`))
	}))
	defer ts.Close()
	err := New(ts.URL).Post(context.Background(), "/tenants", map[string]string{"tenant": "kv"}, nil)
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err %T %v, want *Error", err, err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Code != "conflict" || apiErr.Message != "no capacity" {
		t.Fatalf("decoded %+v", apiErr)
	}
}

func TestNonJSONError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	}))
	defer ts.Close()
	err := New(ts.URL).Get(context.Background(), "/report", nil)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err %v", err)
	}
}

// TestRawOut: *[]byte receives the body verbatim — how snapshots and
// journals are downloaded.
func TestRawOut(t *testing.T) {
	const doc = `{"format":"ihnet-snapshot"}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(doc))
	}))
	defer ts.Close()
	var raw []byte
	if err := New(ts.URL).Post(context.Background(), "/snapshot", nil, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw) != doc {
		t.Fatalf("raw body %q", raw)
	}
}

func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := New(ts.URL).Get(ctx, "/report", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}
