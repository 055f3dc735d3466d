package main

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/cluster"
	"repro/serve/registry"
)

// fixture is a small trained model with query rows, shared by the tests.
var fixture = sync.OnceValues(func() (*disthd.Model, disthd.DataSplit) {
	train, test, err := disthd.SyntheticBenchmark("PAMAP2", 0.05, 42)
	if err != nil {
		panic(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 3
	cfg.Seed = 42
	cfg.RegenRate = 0
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		panic(err)
	}
	return m, test
})

// liveServer serves m over HTTP.
func liveServer(t *testing.T, m *disthd.Model) string {
	t.Helper()
	srv, err := serve.New(m, serve.Options{MaxBatch: 32, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// TestClientsAgree checks that the in-process tenant client and the HTTP
// client in every wire format are one interface over one registry tenant:
// json and binary answer exactly the in-process classes, f32 answers one
// class per row, and each client's learn call lands in the tenant's
// learner.
func TestClientsAgree(t *testing.T) {
	m, test := fixture()
	reg, err := registry.New(1)
	if err != nil {
		t.Fatal(err)
	}
	err = reg.Install("t0", m, registry.Spec{
		Options: serve.Options{MaxBatch: 32, Replicas: 1},
		Learner: &serve.LearnerOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(registry.NewServer(reg).Handler())
	t.Cleanup(func() {
		hs.Close()
		reg.Close()
	})
	feedback := func() uint64 {
		tn, err := reg.Acquire("t0")
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Release(tn)
		return tn.Server().Learner().Snapshot().Feedback
	}

	rows := test.X[:requestRows]
	local := tenantClient{reg, "t0"}
	want, err := local.predictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]client{"in-process": local}
	for _, wf := range []string{wireJSON, wireBinary, wireF32} {
		clients["http "+wf] = newHTTPClient(hs.URL, wf, time.Minute).tenant("t0")
	}
	for name, c := range clients {
		got, err := c.predictBatch(rows)
		if err != nil {
			t.Fatalf("%s: predictBatch: %v", name, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: %d classes for %d rows", name, len(got), len(rows))
		}
		for i := range got {
			if got[i] != want[i] && name != "http "+wireF32 {
				t.Fatalf("%s: row %d class %d, in-process %d", name, i, got[i], want[i])
			}
		}
		before := feedback()
		if err := c.learn(test.X[0], test.Y[0]); err != nil {
			t.Fatalf("%s: learn: %v", name, err)
		}
		if after := feedback(); after != before+1 {
			t.Fatalf("%s: feedback %d -> %d, want one more", name, before, after)
		}
	}
}

// TestChaosDriver runs the one -chaos driver self-contained and against a
// live cluster.Server in both client wire formats: zero dropped requests.
func TestChaosDriver(t *testing.T) {
	m, _ := fixture()
	o := chaosOptions{dataset: "PAMAP2", dim: 64, scale: 0.05, seed: 42, concurrency: 2, duration: 600 * time.Millisecond}
	var out bytes.Buffer
	if err := runChaos(o, &out); err != nil {
		t.Fatalf("self-contained chaos: %v\n%s", err, out.String())
	}

	c, err := cluster.New(cluster.Config{
		Workers:   []string{liveServer(t, m), liveServer(t, m)},
		Transport: cluster.NewHTTPTransport(),
		Fallback:  m,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(cluster.NewServer(c).Handler())
	t.Cleanup(func() {
		cs.Close()
		c.Close()
	})

	o.duration = 300 * time.Millisecond
	for _, wf := range []string{wireJSON, wireBinary} {
		o.httpTarget, o.wire = cs.URL, wf
		out.Reset()
		if err := runChaos(o, &out); err != nil {
			t.Fatalf("chaos wire %s: %v\n%s", wf, err, out.String())
		}
	}
}

// TestTenantsDriver runs the one -loadgen -tenants driver in-process and
// against a live registry.Server, in both wire formats, with a pool
// smaller than the tenant count: no request fails, and the pool churns.
// In-process, 4 clients on 2 slots also meet an exhausted pool, which
// must come back as a throttled retry; live, 2 clients keep the run clear
// of the server's 1 s Retry-After, and the printed churn is the server's.
func TestTenantsDriver(t *testing.T) {
	o := loadgenOptions{
		dim: 32, scale: 0.05, seed: 42, concurrency: []int{4}, duration: 300 * time.Millisecond,
		maxBatch: 32, tenants: 3, pool: 2,
	}
	var out bytes.Buffer
	printedEvictions := func() uint64 {
		match := regexp.MustCompile(`registry churn: (\d+) evictions`).FindStringSubmatch(out.String())
		if match == nil {
			t.Fatalf("no churn line in:\n%s", out.String())
		}
		n, _ := strconv.ParseUint(match[1], 10, 64)
		return n
	}
	if err := runLoadgenTenants(o, &out); err != nil {
		t.Fatalf("in-process: %v\n%s", err, out.String())
	}
	if printedEvictions() == 0 {
		t.Fatalf("in-process: 0 evictions with pool 2 < 3 tenants:\n%s", out.String())
	}

	reg, err := registry.New(2)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(registry.NewServer(reg).Handler())
	t.Cleanup(func() {
		hs.Close()
		reg.Close()
	})
	o.concurrency = []int{2}
	for _, wf := range []string{wireJSON, wireBinary} {
		o.httpTarget, o.wire = hs.URL, wf
		before := reg.Stats().Evictions
		out.Reset()
		if err := runLoadgenTenants(o, &out); err != nil {
			t.Fatalf("live, wire %s: %v\n%s", wf, err, out.String())
		}
		after := reg.Stats().Evictions
		if after == before {
			t.Fatalf("live, wire %s: 0 evictions with pool 2 < 3 tenants:\n%s", wf, out.String())
		}
		if got := printedEvictions(); got != after {
			t.Fatalf("live, wire %s: printed %d evictions, server counted %d:\n%s", wf, got, after, out.String())
		}
	}
}
