// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the shipped code, checks every output, and prints each
// metric by name and unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its build script, which builds
// the harness and cmd/disthd-serve from source into .bench_build first:
//
//	bash perfbench/run.sh --workload predict-batch --seed 1 --seconds 40 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	predict-batch  binary 64-row frames to /predict_batch of disthd-serve -model
//	tenants        disthd-serve -registry: 3 tenants on a 2-replica pool
//
// Training and single-row JSON /predict are not timed workloads: on shared
// virtual CPUs their figures spread past the bounds from run to run. The
// traced run still trains (train.go) and sends JSON requests to the
// predict-batch server, and measures their layers.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it measures every layer on the seed's inputs, whichever the
// workload (perLayer lists which end-to-end metric each one should move,
// and on which workload), prints the self-time breakdowns, writes the spans to
// .bench_build/traces, and reports the per-layer metrics. --steady K runs
// the workload K times on consecutive seeds and prints each metric's median
// and quartile spread ÷ median.
//
// Seed 7919 is held out: development never ran it, so a claimed gain can
// be checked on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef is one reported metric. Moves and On say, for a per-layer
// metric, which end-to-end metric a change to the layer should move and on
// which workload.
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_row", Unit: "us", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "test_accuracy", Unit: "fraction", Better: "higher"},
}

var perLayer = []metricDef{
	{"core.encode_ms", "ms", "lower", "training time", "traced run only"},
	{"core.adapt_ms", "ms", "lower", "training time and CPU", "traced run only"},
	{"core.score_ms", "ms", "lower", "training time", "traced run only"},
	{"core.regenerate_ms", "ms", "lower", "training time", "traced run only"},
	{"core.other_ms", "ms", "lower", "training time", "traced run only"},
	{"core.cores_busy", "cores", "higher", "training time, not its CPU", "traced run only"},
	{"core.regenerated_dims", "count", "higher", "training accuracy", "traced run only"},
	{"mat.encode_gflops", "GFLOP/s", "higher", "training time", "traced run only"},
	{"http.self_ms", "ms", "lower", "JSON p50", "traced run only"},
	{"serve.handler_us", "us", "lower", "JSON p50", "traced run only"},
	{"serve.handler_allocs", "allocs", "lower", "JSON cpu per row", "traced run only"},
	{"serve.batcher_predict_us", "us", "lower", "JSON p50", "traced run only"},
	{"disthd.replica_1row_us", "us", "lower", "JSON p50", "traced run only"},
	{"encoding.encode_1row_us", "us", "lower", "JSON p50", "traced run only"},
	{"model.score_1row_us", "us", "lower", "JSON p50", "traced run only"},
	{"serve.mean_batch_rows", "rows", "higher", "JSON rows/s", "traced run only"},
	{"http.batch_self_ms", "ms", "lower", "latency_p50_ms", "predict-batch"},
	{"serve.batch_handler_us", "us", "lower", "latency_p50_ms", "predict-batch"},
	{"serve.batch_handler_allocs", "allocs", "lower", "cpu_us_per_row", "predict-batch"},
	{"wire.decode_us", "us", "lower", "latency_p50_ms", "predict-batch"},
	{"serve.predict_stream_ms", "ms", "lower", "latency_p50_ms, rows_per_s", "predict-batch"},
	{"encoding.encode_row_us", "us", "lower", "rows_per_s", "predict-batch"},
	{"model.score_row_us", "us", "lower", "rows_per_s", "predict-batch"},
	{"mat.batch_encode_gflops", "GFLOP/s", "higher", "rows_per_s", "predict-batch"},
	{"tenants.other_ms", "ms", "lower", "latency_p50_ms", "tenants"},
	{"registry.dispatch_us", "us", "lower", "latency_p50_ms", "tenants"},
	{"registry.wake_ms", "ms", "lower", "latency_p90_ms", "tenants"},
	{"registry.wakes_per_krow", "wakes", "lower", "rows_per_s", "tenants"},
	{"registry.resident_ratio", "fraction", "higher", "rows_per_s", "tenants"},
	{"registry.throttled_frac", "fraction", "lower", "latency_p90_ms", "tenants"},
	{"tenants.handler_us", "us", "lower", "latency_p50_ms", "tenants"},
	{"learner.learn_p50_ms", "ms", "lower", "rows_per_s", "tenants"},
	{"learner.feed_us", "us", "lower", "rows_per_s", "tenants"},
	{"learner.retrain_ms", "ms", "lower", "latency_p90_ms, rows_per_s", "tenants"},
	{"learner.gate_accept_ratio", "fraction", "higher", "rows_per_s", "tenants"},
	{"bitpack.predict_row_us", "us", "lower", "rows_per_s", "tenants"},
	{"disthd.load_ms", "ms", "lower", "setup_s", "predict-batch, tenants"},
	{"trace.overhead_frac", "fraction", "lower", "none", "all"},
}

var workloads = []string{"predict-batch", "tenants"}

// config is what one run was asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string // disthd-serve binary
	dir      string // scratch for this run's inputs, inside the checkout
	traceDir string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metrics maps a metric name to its value; units come from the catalog.
type metrics map[string]float64

// ledger counts operations per phase.
type ledger struct {
	mu     sync.Mutex
	order  []string
	phases map[string]*counts
}

type counts struct {
	Sent, OK, Failed, Throttled int64
	Notes                       []string
}

func newLedger() *ledger { return &ledger{phases: make(map[string]*counts)} }

func (l *ledger) phase(name string) *counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.phases[name]
	if c == nil {
		c = &counts{}
		l.phases[name] = c
		l.order = append(l.order, name)
	}
	return c
}

// add folds one operation's outcome into a phase; note is kept for the
// first few failures.
func (l *ledger) add(phase string, ok bool, throttled int64, note string) {
	c := l.phase(phase)
	l.mu.Lock()
	defer l.mu.Unlock()
	c.Sent++
	c.Throttled += throttled
	if ok {
		c.OK++
		return
	}
	c.Failed++
	if len(c.Notes) < 5 && note != "" {
		c.Notes = append(c.Notes, note)
	}
}

func (l *ledger) totals() (sent, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.phases {
		sent += c.Sent
		failed += c.Failed
	}
	return
}

func (l *ledger) print() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, name := range l.order {
		c := l.phases[name]
		fmt.Printf("ops %-10s sent %7d  ok %7d  failed %4d  throttled %4d\n", name, c.Sent, c.OK, c.Failed, c.Throttled)
		for _, n := range c.Notes {
			fmt.Printf("    failure: %s\n", n)
		}
	}
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: predict-batch or tenants")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		steady   = flag.Int("steady", 0, "run the workload this many times on consecutive seeds and print each metric's median and spread")
		server   = flag.String("server", "", "disthd-serve binary (run.sh builds it)")
		work     = flag.String("work", ".bench_build", "directory for generated inputs and traces")
		role     = flag.String("role", "", "internal: child-process role")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *role == "train" {
		if err := trainChild(*work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench train child:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *workload) {
		fatalf("unknown --workload %q (want one of %v)", *workload, workloads)
	}
	if *server == "" {
		fatalf("--server is required (run the benchmark through perfbench/run.sh)")
	}
	if _, err := os.Stat(*server); err != nil {
		fatalf("server binary: %v", err)
	}
	if *steady > 0 {
		if err := runSteady(*workload, *seed, *seconds, *trace, *steady, *server, *work); err != nil {
			fatalf("%v", err)
		}
		return
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatalf("work dir: %v", err)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		server: *server, dir: dir, traceDir: filepath.Join(*work, "traces"),
	}
	stopOnSignal(dir)
	code := run(cfg)
	killChildren()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(cfg config) int {
	led := newLedger()
	var (
		m   metrics
		err error
	)
	switch {
	case cfg.trace:
		m, err = traceAll(cfg, led)
	case cfg.workload == "tenants":
		m, err = runTenants(cfg, led)
	default:
		m, err = runPredict(cfg, led)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := result{Metrics: make(map[string]jsonMetric, len(want))}
	for _, d := range want {
		v, ok := m[d.Name]
		if err := checkMetricName(d.Name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured (%v)\n", d.Name, v)
			return 1
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		moves := ""
		if d.Moves != "" {
			moves = fmt.Sprintf("  (moves %s on %s)", d.Moves, d.On)
		}
		fmt.Printf("metric %-28s %14.6g %s%s\n", d.Name, v, d.Unit, moves)
	}
	led.print()
	res.Attempted, res.Failed = led.totals()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	killChildren()
	os.Exit(1)
}

// children are the processes this run started; every exit path stops them
// and waits for them.
var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// stopOnSignal makes SIGINT and SIGTERM stop the children and remove the
// run's inputs before exiting.
func stopOnSignal(dir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
}

func killChildren() {
	childMu.Lock()
	list := make([]*child, 0, len(children))
	for c := range children {
		list = append(list, c)
	}
	childMu.Unlock()
	for _, c := range list {
		c.kill()
	}
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
