package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// epoch is the origin of every span timestamp.
var epoch = time.Now()

// span is one request as the client saw it.
type span struct {
	Route string
	Write bool // a mutation or an advance; everything else is a read
	Conn  int
	// Due is when the request was due to be sent: its send time in a
	// closed loop, its slot on the schedule in an open loop.
	Due, Start, End time.Duration
	Open            bool // sent by an open loop
	Status          int  // 0: the request never got a response
	OK              bool
	WAL             int   // durable records the request journaled
	VNs             int64 // virtual nanoseconds the request advanced
}

// latency is the request's time from when it was due to its response.
func (s span) latency() time.Duration { return s.End - s.Due }

// call is one request to issue.
type call struct {
	route  string
	write  bool
	method string
	path   string
	body   any       // JSON-encoded when non-nil
	want   int       // the status that counts as success
	out    any       // decoded from a successful response when non-nil
	due    time.Time // the schedule slot of an open-loop request
}

// conn is one client connection to the daemon. It is used from one
// goroutine at a time and records a span per request.
type conn struct {
	id    int
	base  string
	hc    *http.Client
	spans []span
}

func newConn(id int, base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{id: id, base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// close drops the connection.
func (c *conn) close() { c.hc.CloseIdleConnections() }

// do issues k, records its span and returns it. The pointer is valid
// until the next request on c. A request the daemon answered with
// another status than k.want, or never answered (Status 0), is not OK.
func (c *conn) do(k call) *span {
	var body io.Reader
	if k.body != nil {
		b, err := json.Marshal(k.body)
		if err != nil {
			panic(fmt.Sprintf("bench: encode %s body: %v", k.route, err))
		}
		body = bytes.NewReader(b)
	}
	start := time.Now()
	open := !k.due.IsZero()
	if !open {
		k.due = start
	}
	sp := span{Route: k.route, Write: k.write, Conn: c.id, Open: open,
		Due: k.due.Sub(epoch), Start: start.Sub(epoch)}
	req, err := http.NewRequest(k.method, c.base+k.path, body)
	if err != nil {
		panic(fmt.Sprintf("bench: build %s request: %v", k.route, err))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		sp.Status = resp.StatusCode
		sp.OK = resp.StatusCode == k.want
		if sp.OK && k.out != nil {
			sp.OK = json.NewDecoder(resp.Body).Decode(k.out) == nil
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
	}
	sp.End = time.Since(epoch)
	c.spans = append(c.spans, sp)
	return &c.spans[len(c.spans)-1]
}

// get fetches path and decodes its JSON body into out, failing on any
// status but 200.
func (c *conn) get(route, path string, out any) error {
	if sp := c.do(call{route: route, method: "GET", path: path, want: http.StatusOK, out: out}); !sp.OK {
		return fmt.Errorf("GET %s: status %d", path, sp.Status)
	}
	return nil
}

// raw fetches path and returns its body, failing on any status but 200.
func (c *conn) raw(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// checks collects failed correctness checks from every goroutine of a
// run, counting repeats of the same message.
type checks struct {
	mu     sync.Mutex
	order  []string
	counts map[string]int
}

func (c *checks) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	if c.counts[msg] == 0 {
		c.order = append(c.order, msg)
	}
	c.counts[msg]++
}

// list returns each failure once, in first-seen order, with its count
// when it repeated.
func (c *checks) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, msg := range c.order {
		if n := c.counts[msg]; n > 1 {
			msg = fmt.Sprintf("%s (x%d)", msg, n)
		}
		out = append(out, msg)
	}
	return out
}
