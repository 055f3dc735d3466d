package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	disthd "repro"
	"repro/serve/wire"
)

// The predict-batch workload serves one UCIHAR-shaped snapshot (561
// features, 12 classes) at D=1024 from `disthd-serve -model`, with its
// defaults: MaxBatch 64 and one replica per core. The traced run also sends
// single-row JSON /predict requests to the same server.
const (
	predictDim   = 1024
	predictTrain = 600  // rows the snapshot is trained on
	predictRows  = 1024 // distinct held-out request rows
	frameRows    = 64   // rows per binary /predict_batch frame (= MaxBatch)
	serveConns   = 2    // closed-loop connections, one per core
	setupSpawns  = 15   // set-ups per run; setup_s is their lower quartile
)

// predictInputs is everything the predict requests send and check,
// generated from the seed before any timer starts.
type predictInputs struct {
	snapPath string
	snap     []byte
	model    *disthd.Model // the snapshot, loaded in-process as the reference
	rows     [][]float64
	labels   []int
	want     []int // the reference's classes for rows
	frames   [][]byte
	jsonBody [][]byte
}

func genPredict(cfg config) (*predictInputs, error) {
	tr, _, err := disthd.SyntheticBenchmark("UCIHAR", 0.7, cfg.seed)
	if err != nil {
		return nil, err
	}
	if len(tr.X) < predictTrain+predictRows {
		return nil, fmt.Errorf("UCIHAR split has %d rows, need %d", len(tr.X), predictTrain+predictRows)
	}
	tc := disthd.DefaultConfig()
	tc.Dim = predictDim
	tc.Seed = cfg.seed
	m, err := disthd.TrainWithConfig(tr.X[:predictTrain], tr.Y[:predictTrain], tr.Classes, tc)
	if err != nil {
		return nil, err
	}
	in := &predictInputs{
		snapPath: filepath.Join(cfg.dir, "predict.dhd"),
		rows:     tr.X[predictTrain : predictTrain+predictRows],
		labels:   tr.Y[predictTrain : predictTrain+predictRows],
	}
	if in.snap, in.model, err = snapshot(m); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.snapPath, in.snap, 0o644); err != nil {
		return nil, err
	}
	if in.want, err = in.model.PredictBatch(in.rows); err != nil {
		return nil, err
	}
	for i := 0; i < len(in.rows); i += frameRows {
		f, err := wire.AppendMatrixF64(nil, in.rows[i:i+frameRows], len(in.rows[i]))
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, f)
	}
	for _, row := range in.rows {
		b, err := json.Marshal(struct {
			X []float64 `json:"x"`
		}{row})
		if err != nil {
			return nil, err
		}
		in.jsonBody = append(in.jsonBody, b)
	}
	return in, nil
}

// snapshot saves m and loads it back: the bytes the server gets and the
// in-process reference every answer is checked against.
func snapshot(m *disthd.Model) ([]byte, *disthd.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, nil, err
	}
	ref, err := disthd.Load(bytes.NewReader(buf.Bytes()))
	return buf.Bytes(), ref, err
}

// checkClasses verifies a binary classes frame against want.
func checkClasses(want []int) func(int, []byte) error {
	return func(status int, body []byte) error {
		got, err := decodeClasses(status, body)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d classes for %d rows", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("row %d: class %d, reference says %d", i, got[i], want[i])
			}
		}
		return nil
	}
}

func decodeClasses(status int, body []byte) ([]int, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	d := wire.NewDecoder(bytes.NewReader(body))
	typ, err := d.Next()
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeClasses {
		return nil, fmt.Errorf("answer is a %v frame", typ)
	}
	n, err := d.ClassCount()
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	return out, d.Classes(out)
}

func checkJSONClass(want int) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != 200 {
			return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var r struct {
			Class *int `json:"class"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Class == nil || *r.Class != want {
			return fmt.Errorf("answer %s, reference says class %d", bytes.TrimSpace(body), want)
		}
		return nil
	}
}

// predictOps lists one op per distinct request body.
func (in *predictInputs) ops(jsonWire bool) []op {
	var ops []op
	if jsonWire {
		for i, b := range in.jsonBody {
			ops = append(ops, op{method: "POST", path: "/predict", ctype: "application/json", body: b,
				kind: "predict", rows: 1, check: checkJSONClass(in.want[i])})
		}
		return ops
	}
	for i, f := range in.frames {
		ops = append(ops, op{method: "POST", path: "/predict_batch", ctype: wire.ContentType, body: f,
			kind: "predict", rows: frameRows, check: checkClasses(in.want[i*frameRows : (i+1)*frameRows])})
	}
	return ops
}

// cycle hands each connection the ops in turn, starting at different
// offsets so the two connections do not send the same body at once.
func cycle(ops []op) func(conn, i int) op {
	return func(conn, i int) op { return ops[(i+conn*len(ops)/serveConns)%len(ops)] }
}

// accuracyPass sends every binary predict op once and returns the share of
// rows whose answer matches its label (answers are checked against the
// reference too).
func accuracyPass(base string, ops []op, labels func(k int) []int, led *ledger) float64 {
	correct, total := 0, 0
	counted := make([]op, len(ops))
	for k, o := range ops {
		check := o.check
		o.check = func(status int, body []byte) error {
			if err := check(status, body); err != nil {
				return err
			}
			got, err := decodeClasses(status, body)
			if err != nil {
				return err
			}
			for i, c := range got {
				total++
				if c == labels(k)[i] {
					correct++
				}
			}
			return nil
		}
		counted[k] = o
	}
	runLoad(base, 1, 0, len(counted), func(_, i int) op { return counted[i] }, led, "warmup", nil)
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// spawnMeasured starts the server setupSpawns times and returns the last
// one still running, with the lower quartile of the times from spawn to
// ready. The spawns are identical and the host's interference only adds
// time, so the lower quartile is the steadiest figure. ready brings a fresh
// server to "every tenant installed and /healthz answers 200".
func spawnMeasured(cfg config, args []string, ready func(*server) error, led *ledger) (*server, float64, error) {
	var times []float64
	for {
		t0 := time.Now()
		srv, err := launch(cfg.server, args, ready)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupSpawns {
			led.add("setup", true, 0, "")
			q1, _, _ := quartiles(times)
			fmt.Printf("setup: %.1f ms, lower quartile of %.3v s\n", q1*1e3, times)
			return srv, q1, nil
		}
		led.add("setup", srv.stop(), 0, "set-up server did not drain cleanly on SIGTERM")
	}
}

func healthy(srv *server) error { return srv.waitHealthy(30 * time.Second) }

// warmUntilCalm sends warm-up load a window at a time until a window sees
// host steal of at most maxSteal, for at most maxCalmWait after the first.
// Steal is only seen under load: an idle virtual CPU is never kept waiting.
func warmUntilCalm(base string, conns int, next func(conn, i int) op, led *ledger) error {
	start := time.Now()
	for n := 1; ; n++ {
		h0, err := readHost()
		if err != nil {
			return err
		}
		runLoad(base, conns, window, 0, next, led, "warmup", nil)
		h1, err := readHost()
		if err != nil {
			return err
		}
		if steal := h1.stealSince(h0); steal <= maxSteal || time.Since(start) >= window+maxCalmWait {
			fmt.Printf("warm-up: %d windows, host steal %.3f in the last\n", n, steal)
			return nil
		}
	}
}

// window is the length of the slices the timed phase is cut into. Every
// serving metric is computed per window and the run reports the median
// over the calm windows (see calm), so a few seconds of outside load (this
// runs on shared virtual CPUs) do not move the result.
const window = time.Second

// timedServing runs the timed phase against srv and fills the end-to-end
// serving metrics from the predict ops; it leaves the server running.
func timedServing(cfg config, srv *server, conns int, next func(conn, i int) op, led *ledger, m metrics) (loadStats, error) {
	measureWindows := max(1, int(cfg.duration()/window))
	w := cfg.duration() / time.Duration(measureWindows)
	cpus := make([]time.Duration, measureWindows+1)
	hosts := make([]hostSample, measureWindows+1)
	errs := make([]error, 2*measureWindows+3)
	sample := func(k int) {
		cpus[k], errs[2*k] = srv.cpu()
		hosts[k], errs[2*k+1] = readHost()
	}
	sampled := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampled)
		for k := 0; k < measureWindows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * w)))
			sample(k)
		}
	}()
	st := runLoad(srv.base, conns, cfg.duration(), 0, next, led, "timed", nil)
	<-sampled
	sample(measureWindows)
	hwm, err := srv.hwmMiB()
	errs[len(errs)-1] = err
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	all := windowStats(st, w, cpus, hosts)
	if len(all) == 0 {
		return st, fmt.Errorf("the timed phase answered %d predict requests, too few for a p90", len(st.lat("predict")))
	}
	ws := calm(all, func(x windowStat) float64 { return x.steal })
	var rate, cpu, p50, p90, steal []float64
	for _, x := range ws {
		rate, cpu, p50, p90 = append(rate, x.rate), append(cpu, x.cpu), append(p50, x.p50), append(p90, x.p90)
	}
	for _, x := range all {
		steal = append(steal, x.steal)
	}
	lat := st.lat("predict")
	pooled90, _ := tail(lat, 0.90)
	p99, _ := tail(lat, 0.99)

	m["rows_per_s"] = median(rate)
	m["latency_p50_ms"] = median(p50)
	m["latency_p90_ms"] = median(p90)
	m["cpu_us_per_row"] = median(cpu)
	m["rss_peak_mb"] = hwm
	fmt.Printf("windows: host steal %.3f; %d of %d calm\n", steal, len(ws), len(all))
	fmt.Printf("calm windows: rows/s %.0f, p50 %.3f, p90 %.3f, cpu us/row %.1f\n", rate, p50, p90, cpu)
	fmt.Printf("timed: %d predict requests in %.2fs; pooled p50 %.3f p90 %.3f p99 %.3f ms (p99 not gated)\n",
		len(lat), st.elapsed.Seconds(), median(lat), pooled90, p99)
	return st, nil
}

// windowStat is what one window of the timed phase measured.
type windowStat struct {
	rate, cpu, p50, p90 float64 // rows/s, server CPU µs per row, ms, ms
	steal               float64 // share of the machine's CPU time stolen by the hypervisor
}

// windowStats computes the predict throughput, CPU per row, p50 and p90 of
// each window of length w; cpus and hosts hold the server's CPU time and
// the machine's CPU counters at every window boundary. A window needs
// enough requests for its p90: when one falls short (a slow host),
// neighbouring windows are merged, g at a time. It returns nothing when
// even the whole phase is too short.
func windowStats(st loadStats, w time.Duration, cpus []time.Duration, hosts []hostSample) []windowStat {
	windows := len(cpus) - 1
	rows := make([]float64, windows)
	lat := make([][]float64, windows)
	for _, d := range st.done {
		if d.kind != "predict" {
			continue
		}
		k := min(int(d.at/w), windows-1)
		rows[k] += float64(d.rows)
		lat[k] = append(lat[k], d.ms)
	}
	for g := 1; g <= windows; g++ {
		var out []windowStat
		for k := 0; k < windows; {
			hi := min(k+g, windows)
			if windows-hi < g {
				hi = windows // the last group takes the remainder
			}
			var n float64
			var l []float64
			for j := k; j < hi; j++ {
				n += rows[j]
				l = append(l, lat[j]...)
			}
			q90, ok := tail(l, 0.90)
			if !ok || n == 0 {
				out = nil
				break
			}
			el := time.Duration(hi-k) * w
			if hi == windows {
				el = st.elapsed - time.Duration(k)*w
			}
			out = append(out, windowStat{rate: n / el.Seconds(), cpu: float64(cpus[hi]-cpus[k]) / 1e3 / n,
				p50: median(l), p90: q90, steal: hosts[hi].stealSince(hosts[k])})
			k = hi
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

func runPredict(cfg config, led *ledger) (metrics, error) {
	in, err := genPredict(cfg)
	if err != nil {
		return nil, err
	}
	ops := in.ops(false)
	m := metrics{}
	srv, setup, err := spawnMeasured(cfg, []string{"-model", in.snapPath}, healthy, led)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	m["setup_s"] = setup
	m["test_accuracy"] = accuracyPass(srv.base, ops, func(k int) []int { return in.labels[k*frameRows : (k+1)*frameRows] }, led)
	if err := warmUntilCalm(srv.base, serveConns, cycle(ops), led); err != nil {
		return nil, err
	}
	if _, err := timedServing(cfg, srv, serveConns, cycle(ops), led, m); err != nil {
		return nil, err
	}
	led.add("teardown", srv.stop(), 0, "server did not drain cleanly on SIGTERM")
	return m, nil
}
