package api

import (
	"bufio"
	"context"
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
	Data []byte // the JSON TraceEvent
}

// Stream subscribes to an SSE endpoint and invokes fn for every frame.
// afterSeq > 0 resumes after that bus sequence number (Last-Event-ID);
// 0 starts live. Stream blocks until the context is canceled, the
// server closes the stream, or fn returns an error (which Stream
// returns verbatim). A canceled context returns nil: for a watch
// command, Ctrl-C is a clean exit, not a failure.
func (c *Client) Stream(ctx context.Context, path string, afterSeq uint64, fn func(StreamEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+Prefix+path, nil)
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
