package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request of a load loop, encoded before any timer starts.
type op struct {
	method, path, ctype string
	body                []byte
	kind                string // "predict", "learn" or "retrain"
	rows                int    // predicted rows the request carries
	// check verifies the answer; a non-nil error counts the op as failed.
	check func(status int, body []byte) error
}

// retryBudget is how many 429 answers one op may retry past.
const retryBudget = 3

// loadStats is what a load loop measured.
type loadStats struct {
	done    []opDone // every op answered correctly
	elapsed time.Duration
}

// opDone is one correctly answered op.
type opDone struct {
	at   time.Duration // completion, since the loop started
	ms   float64       // round trip
	kind string
	rows int
}

// lat lists the round trips of one kind of op, in milliseconds.
func (st loadStats) lat(kind string) []float64 {
	var out []float64
	for _, d := range st.done {
		if d.kind == kind {
			out = append(out, d.ms)
		}
	}
	return out
}

// runLoad drives conns closed loops, one HTTP connection each: a loop sends
// its next op only after the previous one was answered. It runs for dur,
// or until every loop has sent count ops when count > 0. With rec set, each
// round trip is recorded as a "client.<kind>" span.
func runLoad(base string, conns int, dur time.Duration, count int, next func(conn, i int) op,
	led *ledger, phase string, rec *recorder) loadStats {
	// One core at most for the load generator, so the server under test
	// always has the other to itself.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		reqID atomic.Int64
		st    loadStats
		start = time.Now()
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			client := connClient()
			defer client.CloseIdleConnections()
			var done []opDone
			var buf bytes.Buffer
			for i := 0; ; i++ {
				if count > 0 && i >= count || count == 0 && time.Since(start) >= dur {
					break
				}
				o := next(conn, i)
				id := int(reqID.Add(1))
				var span int
				if rec != nil {
					span = rec.begin("client."+o.kind, -1, id)
				}
				t0 := time.Now()
				throttled, err := send(client, base, o, &buf)
				t1 := time.Now()
				if rec != nil {
					rec.end(span)
				}
				note := ""
				if err != nil {
					note = fmt.Sprintf("%s %s: %v", o.method, o.path, err)
				} else {
					done = append(done, opDone{at: t1.Sub(start), ms: float64(t1.Sub(t0)) / 1e6, kind: o.kind, rows: o.rows})
				}
				led.add(phase, err == nil, throttled, note)
			}
			mu.Lock()
			st.done = append(st.done, done...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// requestTimeout bounds one request: a server that accepts a request and
// never answers fails the op instead of hanging the run.
const requestTimeout = 30 * time.Second

// connClient returns a client that keeps a single keep-alive connection, so
// each closed loop drives exactly one connection.
func connClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// send performs o, retrying a 429 after its Retry-After up to retryBudget
// times, and returns how many throttled answers it waited out.
func send(c *http.Client, base string, o op, buf *bytes.Buffer) (throttled int64, err error) {
	for {
		req, err := http.NewRequest(o.method, base+o.path, bytes.NewReader(o.body))
		if err != nil {
			return throttled, err
		}
		if o.ctype != "" {
			req.Header.Set("Content-Type", o.ctype)
		}
		resp, err := c.Do(req)
		if err != nil {
			return throttled, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return throttled, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && throttled < retryBudget {
			throttled++
			wait, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || wait < 0 {
				wait = 1
			}
			time.Sleep(time.Duration(wait) * time.Second)
			continue
		}
		return throttled, o.check(resp.StatusCode, buf.Bytes())
	}
}
