package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stall in an open loop delays the requests scheduled behind it, and
// each of them is timed from its due time, so the stall is counted once
// per request it held up, not once in total.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate = 100 // one request due every 10 ms
	const stall = 60 * time.Millisecond
	start := time.Now()
	var lags, latencies []time.Duration
	openLoop(&gate{}, start, start.Add(200*time.Millisecond), rate, func(i int, due time.Time) *span {
		began := time.Now()
		if i == 0 {
			time.Sleep(stall)
		}
		end := time.Now()
		lags = append(lags, began.Sub(due))
		latencies = append(latencies, end.Sub(due))
		return &span{Status: http.StatusOK}
	})
	if len(lags) != 20 {
		t.Fatalf("issued %d requests over 200 ms at 100/s, want 20 whatever the service time", len(lags))
	}
	if latencies[0] < stall {
		t.Errorf("stalled request latency %v, want at least %v", latencies[0], stall)
	}
	// Request 1 was due 10 ms after the start but could only start once
	// the stall ended, 60 ms after it: it ran about 50 ms late.
	if lags[1] < stall-15*time.Millisecond {
		t.Errorf("request behind the stall ran %v late, want about %v", lags[1], stall-10*time.Millisecond)
	}
	if lags[len(lags)-1] > 20*time.Millisecond {
		t.Errorf("the loop never caught up: last request %v late", lags[len(lags)-1])
	}
}

func TestOpenLoopStopsWhenDaemonIsGone(t *testing.T) {
	n := 0
	start := time.Now()
	openLoop(&gate{}, start, start.Add(time.Second), 1000, func(int, time.Time) *span {
		n++
		return &span{} // Status 0: no response
	})
	if n != 1 {
		t.Errorf("kept sending after a request got no response: %d requests", n)
	}
}

// A pause sends nothing while it runs. An open loop's schedule moves
// back by the pause's length, so no request is timed as late for it.
func TestPauseStopsLoadAndShiftsSchedule(t *testing.T) {
	const rate = 200 // one request due every 5 ms
	const pause = 50 * time.Millisecond
	var g gate
	var inPause atomic.Bool
	var sentInPause atomic.Int32
	start := time.Now()
	deadline := start.Add(150 * time.Millisecond)
	var lags []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(40 * time.Millisecond)
		g.pause(func() {
			inPause.Store(true)
			time.Sleep(pause)
			inPause.Store(false)
		})
	}()
	var closed int
	runAll(func() {
		openLoop(&g, start, deadline, rate, func(_ int, due time.Time) *span {
			if inPause.Load() {
				sentInPause.Add(1)
			}
			lags = append(lags, time.Since(due))
			return &span{Status: http.StatusOK}
		})
	}, func() {
		closedLoop(&g, deadline, func() *span {
			if inPause.Load() {
				sentInPause.Add(1)
			}
			closed++
			time.Sleep(time.Millisecond)
			return &span{Status: http.StatusOK}
		})
	})
	<-done
	if n := sentInPause.Load(); n != 0 {
		t.Errorf("%d requests were sent during the pause", n)
	}
	if closed == 0 {
		t.Error("the closed loop sent nothing")
	}
	// 150 ms at 200/s is 30 slots; the 50 ms pause pushes 10 of them
	// past the deadline.
	if len(lags) < 18 || len(lags) > 21 {
		t.Errorf("open loop sent %d requests, want about 20", len(lags))
	}
	for i, lag := range lags {
		if lag > 15*time.Millisecond {
			t.Errorf("request %d ran %v late: the pause was charged to it", i, lag)
		}
	}
}

func TestConnSpanLatencyFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()
	c := newConn(7, srv.URL)
	defer c.close()

	due := time.Now().Add(-20 * time.Millisecond)
	sp := c.do(call{route: "admit", write: true, method: "POST", path: "/", body: map[string]int{"x": 1},
		want: http.StatusCreated, due: due})
	if !sp.OK || !sp.Open || sp.Conn != 7 {
		t.Fatalf("span = %+v", *sp)
	}
	if lat := sp.latency(); lat < 25*time.Millisecond {
		t.Errorf("open-loop latency %v, want at least the 20 ms the request was late plus 5 ms service", lat)
	}
	closed := c.do(call{route: "verify", method: "GET", path: "/", want: http.StatusOK})
	if closed.OK || closed.Status != http.StatusCreated || closed.Open {
		t.Errorf("unexpected status should fail the span: %+v", *closed)
	}
	if lat := closed.latency(); lat < 5*time.Millisecond || lat > time.Second {
		t.Errorf("closed-loop latency %v, want about the 5 ms service time", lat)
	}
	if len(c.spans) != 2 {
		t.Errorf("recorded %d spans, want 2", len(c.spans))
	}
}

// Generator lag: an open-loop request is late from its slot, a
// closed-loop one from the previous response on its connection, and a
// gap that spans a pause between slices is not lag.
func TestLags(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	w := &window{
		marks: []mark{{at: 0, resume: ms(1)}, {at: ms(100), resume: ms(130)}, {at: ms(200), resume: ms(201)}},
		spans: []span{
			{Conn: 0, Start: ms(10), End: ms(20)},
			{Conn: 0, Start: ms(21), End: ms(99)},   // 1 ms after the previous response
			{Conn: 0, Start: ms(130), End: ms(140)}, // after the pause: not lag
			{Conn: 1, Open: true, Due: ms(50), Start: ms(53), End: ms(60)},
		},
	}
	got := lags(w)
	want := []float64{1000, 3000}
	if len(got) != len(want) {
		t.Fatalf("lags = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lags = %v, want %v", got, want)
		}
	}
}
