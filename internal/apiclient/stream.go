package apiclient

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// StreamEvent is one server-sent event from a daemon event stream
// (/events or /fleet/events). ID is the bus sequence number — resume a
// dropped connection by passing the last one seen to Stream.
type StreamEvent struct {
	ID   uint64
	Type string // event kind name ("heartbeat", "fleet-epoch", ...)
	Data []byte // the JSON envelope (traceEventDTO shape)
}

// Stream subscribes to an SSE endpoint and invokes fn for every frame.
// afterSeq > 0 resumes after that bus sequence number (Last-Event-ID);
// 0 starts live. Stream blocks until the context is canceled, the
// server closes the stream, or fn returns an error (which Stream
// returns verbatim). A canceled context returns nil: for a watch
// command, Ctrl-C is a clean exit, not a failure.
func (c *Client) Stream(ctx context.Context, path string, afterSeq uint64, fn func(StreamEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1"+path, nil)
	if err != nil {
		return err
	}
	if afterSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(afterSeq, 10))
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return decodeError(resp.StatusCode, buf[:n])
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return fmt.Errorf("%s is not an event stream (Content-Type %q)", path, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var ev StreamEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Type != "" || len(ev.Data) > 0 {
				if err := fn(ev); err != nil {
					return err
				}
			}
			ev = StreamEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = append([]byte(nil), line[len("data: "):]...)
		}
		// Comment lines (keepalives) fall through untouched.
	}
	if ctx.Err() != nil {
		return nil
	}
	return sc.Err()
}

// SubsystemStatus is one entry of the health document's per-subsystem
// map. Fields beyond Status vary by subsystem and land in Detail.
type SubsystemStatus struct {
	Status string                 `json:"status"`
	Detail map[string]json.Number `json:"-"`
}

// UnmarshalJSON keeps the status field typed and funnels everything
// else (counts, sequence numbers) into Detail.
func (s *SubsystemStatus) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if v, ok := raw["status"]; ok {
		if err := json.Unmarshal(v, &s.Status); err != nil {
			return err
		}
	}
	s.Detail = make(map[string]json.Number)
	for k, v := range raw {
		if k == "status" {
			continue
		}
		var n json.Number
		if json.Unmarshal(v, &n) == nil {
			s.Detail[k] = n
		}
	}
	return nil
}

// Health is the typed /healthz document. Every daemon serves the same
// shape: a single-host daemon is a one-host fleet, reported with Mode
// "host".
type Health struct {
	Status        string                     `json:"status"`
	Mode          string                     `json:"mode"` // "host" (one host) or "fleet"
	Version       string                     `json:"version"`
	GoVersion     string                     `json:"go_version"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	VirtualTimeNs int64                      `json:"virtual_time_ns"`
	Tenants       int                        `json:"tenants"`
	Hosts         int                        `json:"hosts"`
	Quarantined   int                        `json:"quarantined"`
	Subsystems    map[string]SubsystemStatus `json:"subsystems"`
}

// Health fetches and decodes /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.Get(ctx, "/healthz", &h)
	return h, err
}
