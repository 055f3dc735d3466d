package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/cluster"
)

// chaosOptions configures the fault-injection load harness.
type chaosOptions struct {
	dataset     string
	dim         int
	scale       float64
	seed        uint64
	concurrency int
	duration    time.Duration
	httpTarget  string // non-empty: drive an external coordinator instead
	wire        string // wire format: client->coordinator in external mode, coordinator->worker in self-contained mode
}

// chaosBatch is the rows-per-request size the harness sends.
const chaosBatch = 8

// chaosTally accumulates one load run's outcome across client goroutines.
type chaosTally struct {
	lat      latencies
	requests atomic.Uint64
	dropped  atomic.Uint64 // requests that errored — the invariant is 0
}

// runChaos runs the chaos harness: self-contained (spin three real-HTTP
// workers and a coordinator in-process, then kill one worker and stall
// another mid-load) or, with httpTarget set, as a pure load driver against
// an external coordinator while a script injects the faults. Either way the
// same load loop streams batches to the coordinator, and the run reports
// dropped requests (which must be zero — a non-zero count is the returned
// error) and the latency distribution the faults produced.
func runChaos(o chaosOptions, w io.Writer) error {
	if o.concurrency < 1 {
		o.concurrency = 1
	}
	if o.httpTarget == "" && o.wire == wireF32 {
		return fmt.Errorf("-wire %s needs -http: the self-contained run applies -wire to its coordinator->worker hop, which speaks %s or %s",
			wireF32, wireJSON, wireBinary)
	}
	train, test, err := disthd.SyntheticBenchmark(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	if o.httpTarget != "" {
		// A request the coordinator has not answered within 5 s counts as
		// dropped: its call timeout and retries answer well inside that.
		hc := newHTTPClient(o.httpTarget, o.wire, 5*time.Second)
		if err := hc.waitReady(nil); err != nil {
			return err
		}
		fmt.Fprintf(w, "chaos: %d clients x %v against %s over %s wire\n", o.concurrency, o.duration, hc.base, o.wire)
		return chaosLoad(hc.predictBatch, o, test.X).report(w)
	}

	cc, err := startChaosCluster(o, train, w)
	if err != nil {
		return err
	}
	defer cc.close()
	fmt.Fprintf(w, "chaos: %d clients x %v against %d workers over %s wire (kill w0 at 1/3, stall w1 at 2/3)\n",
		o.concurrency, o.duration, len(cc.hss), o.wire)
	var faults sync.WaitGroup
	faults.Add(1)
	go func() {
		defer faults.Done()
		cc.inject(o.duration, w)
	}()
	tally := chaosLoad(func(rows [][]float64) ([]int, error) {
		return cc.c.PredictBatch(context.Background(), rows)
	}, o, test.X)
	faults.Wait()
	snap := cc.c.Stats()
	if err := tally.report(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "coordinator: fallback_rows=%d quorum_misses=%d retries=%d dropped=%d\n",
		snap.FallbackRows, snap.QuorumMisses, snap.Retries, snap.Dropped)
	for _, ws := range snap.Workers {
		fmt.Fprintf(w, "  worker %-24s breaker=%-9s requests=%-6d failures=%-5d probe_failures=%d\n",
			ws.Addr, ws.Breaker, ws.Requests, ws.Failures, ws.ProbeFailures)
	}
	if snap.Dropped != 0 {
		return fmt.Errorf("coordinator dropped %d rows; the invariant is 0", snap.Dropped)
	}
	return nil
}

// chaosLoad streams chaosBatch-row batches from o.concurrency closed-loop
// clients through predict for o.duration and tallies every request's
// outcome.
func chaosLoad(predict func([][]float64) ([]int, error), o chaosOptions, rows [][]float64) *chaosTally {
	t := &chaosTally{}
	closedLoopN(o.concurrency, o.duration, len(rows), func(k int) error {
		batch := make([][]float64, chaosBatch)
		for j := range batch {
			batch[j] = rows[(k+j)%len(rows)]
		}
		start := time.Now()
		classes, err := predict(batch)
		t.requests.Add(1)
		if err != nil || len(classes) != len(batch) {
			t.dropped.Add(1)
		} else {
			t.lat.add(time.Since(start))
		}
		return nil // a dropped request is tallied, and the client keeps going
	})
	return t
}

// report prints the tally and enforces the zero-dropped invariant.
func (t *chaosTally) report(w io.Writer) error {
	n := t.requests.Load()
	fmt.Fprintf(w, "\nchaos result: requests=%d rows=%d dropped=%d\n", n, n*chaosBatch, t.dropped.Load())
	fmt.Fprintf(w, "latency: p50=%v p95=%v p99=%v max=%v\n",
		t.lat.quantile(0.50), t.lat.quantile(0.95), t.lat.quantile(0.99), t.lat.quantile(1))
	if d := t.dropped.Load(); d != 0 {
		return fmt.Errorf("%d requests dropped; the invariant is 0", d)
	}
	fmt.Fprintln(w, "invariant held: 0 dropped requests")
	return nil
}

// stallGate wraps a worker handler so the harness can wedge the whole
// worker mid-load: while stalled, every request blocks until the caller's
// context dies — exactly how a live-locked process looks from outside.
type stallGate struct {
	stalled atomic.Bool
	h       http.Handler
}

// ServeHTTP implements http.Handler.
func (g *stallGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.stalled.Load() {
		// Drain the body first: the server only notices a client hanging
		// up (and cancels r.Context) once the request body is consumed,
		// so blocking with it unread would wedge the connection for good.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	}
	g.h.ServeHTTP(w, r)
}

// chaosCluster is the self-contained run's cluster: three stock
// serve.Servers as real-HTTP workers behind an in-process coordinator
// that speaks o.wire to them and holds the model as its fallback.
type chaosCluster struct {
	servers []*serve.Server
	gates   []*stallGate
	hss     []*httptest.Server
	c       *cluster.Coordinator
}

// startChaosCluster trains the shared model and starts the cluster.
func startChaosCluster(o chaosOptions, train disthd.DataSplit, w io.Writer) (*chaosCluster, error) {
	cfg := disthd.DefaultConfig()
	cfg.Dim = o.dim
	cfg.Seed = o.seed
	cfg.RegenRate = 0
	fmt.Fprintf(w, "chaos: training %s model (scale %.2f, D=%d)...\n", o.dataset, o.scale, o.dim)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		return nil, err
	}
	cc := &chaosCluster{}
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := serve.New(m, serve.Options{MaxBatch: 32, MaxDelay: time.Millisecond, Replicas: 1})
		if err != nil {
			cc.close()
			return nil, err
		}
		g := &stallGate{h: srv.Handler()}
		hs := httptest.NewServer(g)
		cc.servers = append(cc.servers, srv)
		cc.gates = append(cc.gates, g)
		cc.hss = append(cc.hss, hs)
		addrs = append(addrs, hs.URL)
	}
	tr := cluster.NewHTTPTransport()
	tr.Wire = o.wire
	cc.c, err = cluster.New(cluster.Config{
		Workers:     addrs,
		Quorum:      2,
		Transport:   tr,
		CallTimeout: 250 * time.Millisecond,
		Retry: cluster.RetryConfig{
			MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		Breaker:       cluster.BreakerConfig{FailureThreshold: 3, OpenFor: 400 * time.Millisecond},
		ProbeInterval: 100 * time.Millisecond,
		Fallback:      m,
		Seed:          o.seed,
	})
	if err != nil {
		cc.close()
		return nil, err
	}
	return cc, nil
}

// inject kills worker 0 (listener closed, the SIGKILL equivalent) at a
// third of a run of length d and stalls worker 1 at two thirds.
func (cc *chaosCluster) inject(d time.Duration, w io.Writer) {
	time.Sleep(d / 3)
	fmt.Fprintf(w, "chaos: KILLING worker 0 (%s)\n", cc.hss[0].URL)
	cc.hss[0].CloseClientConnections()
	cc.hss[0].Close()
	time.Sleep(d / 3)
	fmt.Fprintf(w, "chaos: STALLING worker 1 (%s)\n", cc.hss[1].URL)
	cc.gates[1].stalled.Store(true)
}

// close stops the coordinator, then every worker.
func (cc *chaosCluster) close() {
	if cc.c != nil {
		cc.c.Close()
	}
	for i, hs := range cc.hss {
		cc.gates[i].stalled.Store(false)
		hs.CloseClientConnections()
		hs.Close()
		cc.servers[i].Close()
	}
}
