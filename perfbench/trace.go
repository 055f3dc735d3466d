package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	disthd "repro"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
	"repro/serve"
	"repro/serve/registry"
	"repro/serve/wire"
)

// The traced run measures every layer of every workload, each on the
// seed's inputs for the workload it belongs to, from the benchmark's own
// files: spans wrap the calls into each layer's public functions. Where a
// layer's inner call cannot be wrapped from outside the program (the
// Batcher calls the replica, the replica calls the kernels), each layer is
// replayed alone on the same rows and its metric is its whole call time.
// The breakdowns print how the client latency splits over the layers: a
// layer's share there is its median minus the inner layer's, a difference
// of medians rather than a span self time, which noise can make negative.
// Every breakdown ends in a named remainder, so its rows add up to the
// client-measured latency_p50_ms (serving) or the traced training time
// (train). A serving remainder is the client round trip minus the
// in-process handler: net/http and loopback, and the time a request shares
// the cores with the other connection's request, which the lone in-process
// replay never does.

const (
	replayJSON    = 1500 // single-row requests replayed in-process
	replayBatch   = 150  // 64-row frames replayed in-process
	replayTenants = 600  // registry requests replayed in-process
	allocRuns     = 500  // handler calls the allocation count averages over
)

// tracePhase is how long each traced or untraced client phase runs.
func (c config) tracePhase() time.Duration { return c.duration() / 8 }

func traceAll(cfg config, led *ledger) (metrics, error) {
	m := metrics{}
	overhead := map[string]float64{}
	spans := map[string][]span{}
	if err := traceTrain(cfg, led, m, overhead, spans); err != nil {
		return nil, err
	}
	if err := tracePredict(cfg, led, m, overhead, spans); err != nil {
		return nil, err
	}
	if err := traceTenants(cfg, led, m, overhead, spans); err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = overhead[cfg.workload]
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	out, err := json.Marshal(spans)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return m, nil
}

// part is one row of a breakdown. A diff row is a difference between
// medians of calls replayed separately, not a span self time.
type part struct {
	name string
	v    float64
	diff bool
}

// breakdown prints the parts that add up to total. A negative diff row is
// below the replay's noise and is printed as unresolved.
func breakdown(title string, total float64, unit string, parts []part) {
	fmt.Printf("%s: %.4g %s (rows marked diff are differences of medians)\n", title, total, unit)
	for _, p := range parts {
		switch {
		case p.diff && p.v < 0:
			fmt.Printf("  %-62s %10s (%.3g %s)\n", p.name, "unresolved", p.v, unit)
		case p.diff:
			fmt.Printf("  %-62s %10.4g %s %6.1f%% diff\n", p.name, p.v, unit, 100*p.v/total)
		default:
			fmt.Printf("  %-62s %10.4g %s %6.1f%%\n", p.name, p.v, unit, 100*p.v/total)
		}
	}
}

// remainder checks a client round trip minus its in-process replay: a
// negative one means the replay does not account for the client latency,
// and fails a trace op.
func remainder(led *ledger, name string, v float64) float64 {
	led.add("trace", v >= 0, 0, fmt.Sprintf("%s is %.4g ms: the in-process replay is slower than the client round trip", name, v))
	return v
}

func traceTrain(cfg config, led *ledger, m metrics, overhead map[string]float64, spans map[string][]span) error {
	if err := genTrain(cfg.dir, cfg.seed); err != nil {
		return err
	}
	res, err := runTrainChild(cfg)
	if err != nil {
		return err
	}
	t := res.Trace
	led.add("trace", t.Matches, 0, "staged training differs from TrainWithConfig on the same split")
	st := t.StageMs
	m["core.encode_ms"] = st["core.encode"]
	m["core.adapt_ms"] = st["core.adapt"]
	m["core.score_ms"] = st["core.score"]
	m["core.regenerate_ms"] = st["core.regenerate"]
	m["core.other_ms"] = st["core.other"]
	m["core.cores_busy"] = t.CoresBusy
	m["core.regenerated_dims"] = float64(t.Regen)
	m["mat.encode_gflops"] = t.EncodeFlops / (st["core.encode"] / 1e3) / 1e9
	total := 0.0
	for _, v := range st {
		total += v
	}
	breakdown("train: traced training (median stage self times)", total, "ms", []part{
		{"core.encode", st["core.encode"], false}, {"core.adapt", st["core.adapt"], false},
		{"core.score", st["core.score"], false}, {"core.regenerate", st["core.regenerate"], false},
		{"core.other (remainder)", st["core.other"], false},
	})
	fmt.Printf("  traced %.1f ms vs untraced %.1f ms; cores busy %.2f; %d dims regenerated\n",
		median(t.TracedMs), median(t.UntracedMs), t.CoresBusy, t.Regen)
	spans["train"] = t.Spans
	return nil
}

// clientPhases runs an untraced and then a traced client phase with the
// same traffic and returns the traced phase and the p50 overhead.
func clientPhases(cfg config, srv *server, next func(conn, i int) op, led *ledger, rec *recorder) (loadStats, float64) {
	plain := runLoad(srv.base, serveConns, cfg.tracePhase(), 0, next, led, "trace", nil)
	traced := runLoad(srv.base, serveConns, cfg.tracePhase(), 0, next, led, "trace", rec)
	return traced, median(traced.lat("predict"))/median(plain.lat("predict")) - 1
}

// replayWriter is a reusable ResponseWriter, so a replayed handler call
// allocates only what the handler itself allocates.
type replayWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *replayWriter) WriteHeader(s int)           { w.status = s }

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// replayer sends request bodies straight into a handler.
type replayer struct {
	h    http.Handler
	w    replayWriter
	body replayBody
	req  *http.Request
}

func newReplayer(h http.Handler, path, ctype string) *replayer {
	r := &replayer{h: h, w: replayWriter{h: http.Header{}}}
	r.req, _ = http.NewRequest("POST", "http://replay"+path, nil)
	r.req.Header.Set("Content-Type", ctype)
	return r
}

func (r *replayer) serve(body []byte) (int, []byte) {
	clear(r.w.h)
	r.w.buf.Reset()
	r.w.status = http.StatusOK
	r.body.Reset(body)
	r.req.Body = &r.body
	r.req.ContentLength = int64(len(body))
	r.h.ServeHTTP(&r.w, r.req)
	return r.w.status, r.w.buf.Bytes()
}

// allocsPerCall counts heap allocations per call of f, as
// testing.AllocsPerRun does: one warm-up call, then whole allocations per
// call over allocRuns calls.
func allocsPerCall(f func(i int)) float64 {
	f(0)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < allocRuns; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / allocRuns)
}

// kernels rebuilds a snapshot's encoder and class model with the internal
// packages, the way disthd.Load does, so the kernels can be timed alone.
func kernels(snap []byte) (*encoding.RBF, *model.Model, error) {
	var hdr [5]uint32
	r := bytes.NewReader(snap)
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, nil, err
	}
	q, d, k := int(hdr[2]), int(hdr[3]), int(hdr[4])
	var sigma float64
	if err := binary.Read(r, binary.LittleEndian, &sigma); err != nil {
		return nil, nil, err
	}
	base, phase, weights := mat.New(d, q), make([]float64, d), make([]float64, k*d)
	for _, block := range [][]float64{base.Data, phase, weights} {
		if err := binary.Read(r, binary.LittleEndian, block); err != nil {
			return nil, nil, err
		}
	}
	enc, err := encoding.NewRBFFromParams(base, phase, sigma, 1)
	if err != nil {
		return nil, nil, err
	}
	mdl := model.New(k, d)
	copy(mdl.Weights.Data, weights)
	mdl.RefreshNorms()
	return enc, mdl, nil
}

// layer is one replayed call. f runs inside the layer's span, whose ID it
// gets for child spans (-1 on an untimed call); prep and post run outside.
type layer struct {
	name string
	prep func(i int)
	f    func(i, span int)
	post func(i int)
}

// replayLayers times n calls of every layer on the same inputs, in rounds:
// each round gives each layer one untimed call and then block timed calls.
// Taking turns makes the layers share whatever the host does meanwhile,
// and the untimed call makes each timed warm: the kernels' copy of the
// weights would otherwise evict the served model's from the cache.
func replayLayers(rec *recorder, n, block int, layers []layer) {
	for start := 0; start < n; start += block {
		for _, l := range layers {
			for i := start - 1; i < min(start+block, n); i++ {
				j := max(i, start)
				if l.prep != nil {
					l.prep(j)
				}
				if i < start {
					l.f(j, -1)
				} else {
					id := rec.begin(l.name, -1, i)
					l.f(i, id)
					rec.end(id)
				}
				if l.post != nil {
					l.post(j)
				}
			}
		}
	}
}

// spanMs is the median duration in milliseconds of the named spans.
func spanMs(rec *recorder, name string) float64 { return median(durationsByName(rec.snapshot())[name]) }

func sameClasses(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func tracePredict(cfg config, led *ledger, m metrics, overhead map[string]float64, spans map[string][]span) error {
	in, err := genPredict(cfg)
	if err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f, err := os.Open(in.snapPath)
		if err != nil {
			return err
		}
		_, err = disthd.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
	}
	m["disthd.load_ms"] = median(loads)

	srv, err := launch(cfg.server, []string{"-model", in.snapPath}, healthy)
	if err != nil {
		return err
	}
	defer srv.kill()
	jsonOps, batchOps := in.ops(true), in.ops(false)
	runLoad(srv.base, serveConns, 0, len(jsonOps)/serveConns, cycle(jsonOps), led, "warmup", nil)
	runLoad(srv.base, serveConns, 0, len(batchOps), cycle(batchOps), led, "warmup", nil)
	jrec, brec := newRecorder(), newRecorder()
	jst, jo := clientPhases(cfg, srv, cycle(jsonOps), led, jrec)
	var stats struct {
		MeanBatchRows float64 `json:"mean_batch_rows"`
	}
	b, err := srv.call("GET", "/stats", "", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &stats); err != nil {
		return err
	}
	bst, bo := clientPhases(cfg, srv, cycle(batchOps), led, brec)
	overhead["predict-batch"] = bo
	fmt.Printf("tracing overhead on the p50: JSON /predict %+.3f, predict-batch %+.3f\n", jo, bo)
	led.add("teardown", srv.stop(), 0, "server did not drain cleanly on SIGTERM")
	spans["json.client"], spans["predict-batch.client"] = jrec.snapshot(), brec.snapshot()
	rec := newRecorder()
	defer func() { spans["predict.replay"] = rec.snapshot() }()

	// In-process replays on a server with disthd-serve's default options.
	local, err := serve.New(in.model, serve.Options{})
	if err != nil {
		return err
	}
	defer local.Batcher().Close()
	enc, mdl, err := kernels(in.snap)
	if err != nil {
		return err
	}
	q, d, k := in.model.Features(), in.model.Dim(), in.model.Classes()
	rep, err := in.model.NewReplica(frameRows)
	if err != nil {
		return err
	}
	check := func(ok bool, what string) { led.add("trace", ok, 0, what+" differs from the reference") }
	encoded := enc.EncodeBatch(mat.FromRows(in.rows)) // scoring replays start from these

	// JSON /predict: handler → Batcher.Predict → Replica.PredictBatch → kernels.
	jr := newReplayer(local.Handler(), "/predict", "application/json")
	x1, h1, s1 := mat.New(1, q), mat.New(1, d), mat.New(1, k)
	out := make([]int, frameRows)
	row := func(i int) int { return i % len(in.rows) }
	var (
		status int
		body   []byte
		class  int
		err2   error
	)
	replayLayers(rec, replayJSON, 20, []layer{
		{name: "json.serve.handler",
			f:    func(i, _ int) { status, body = jr.serve(in.jsonBody[row(i)]) },
			post: func(i int) { check(checkJSONClass(in.want[row(i)])(status, body) == nil, "replayed /predict answer") }},
		{name: "json.serve.batcher_predict",
			f:    func(i, _ int) { class, err2 = local.Batcher().Predict(in.rows[row(i)]) },
			post: func(i int) { check(err2 == nil && class == in.want[row(i)], "Batcher.Predict") }},
		{name: "json.disthd.replica",
			f:    func(i, _ int) { _, err2 = rep.PredictBatch(in.model, in.rows[row(i):row(i)+1], out[:1]) },
			post: func(i int) { check(err2 == nil && out[0] == in.want[row(i)], "Replica.PredictBatch") }},
		{name: "json.encoding.encode",
			prep: func(i int) { copy(x1.Data, in.rows[row(i)]) },
			f:    func(int, int) { enc.EncodeBatchInto(x1, h1) }},
		{name: "json.model.score",
			prep: func(i int) { copy(h1.Data, encoded.Row(row(i))) },
			f:    func(int, int) { mdl.PredictBatchInto(h1, s1, out[:1]) },
			post: func(i int) { check(out[0] == in.want[row(i)], "kernel predict") }},
	})
	m["serve.handler_allocs"] = allocsPerCall(func(i int) { jr.serve(in.jsonBody[i%len(in.rows)]) })
	jc := median(jst.lat("predict"))
	jh, jb := spanMs(rec, "json.serve.handler"), spanMs(rec, "json.serve.batcher_predict")
	jp, je, js := spanMs(rec, "json.disthd.replica"), spanMs(rec, "json.encoding.encode"), spanMs(rec, "json.model.score")
	m["http.self_ms"] = remainder(led, "http.self_ms", jc-jh)
	m["serve.handler_us"] = jh * 1e3
	m["serve.batcher_predict_us"] = jb * 1e3
	m["disthd.replica_1row_us"] = jp * 1e3
	m["encoding.encode_1row_us"] = je * 1e3
	m["model.score_1row_us"] = js * 1e3
	m["serve.mean_batch_rows"] = stats.MeanBatchRows
	breakdown("JSON /predict (traced only): client latency_p50", jc, "ms", []part{
		{"http.self (remainder: net/http, loopback, core sharing)", jc - jh, false}, {"serve.handler", jh - jb, true},
		{"serve.batcher_predict", jb - jp, true}, {"disthd.replica_1row", jp - je - js, true},
		{"encoding.encode_1row", je, false}, {"model.score_1row", js, false},
	})

	// predict-batch: handler → PredictStream (fill = wire decode) → kernels.
	br := newReplayer(local.Handler(), "/predict_batch", wire.ContentType)
	x64, h64, s64 := mat.New(frameRows, q), mat.New(frameRows, d), mat.New(frameRows, k)
	dec := wire.NewDecoder(nil)
	var rd bytes.Reader
	frame := func(i int) int { return i % len(in.frames) }
	want := func(i int) []int { return in.want[frame(i)*frameRows : (frame(i)+1)*frameRows] }
	rows64 := func(dst *mat.Dense, src *mat.Dense, i int) {
		for r := 0; r < frameRows; r++ {
			copy(dst.Row(r), src.Row(frame(i)*frameRows+r))
		}
	}
	all64 := mat.FromRows(in.rows)
	replayLayers(rec, replayBatch, 5, []layer{
		{name: "batch.serve.handler",
			f:    func(i, _ int) { status, body = br.serve(in.frames[frame(i)]) },
			post: func(i int) { check(checkClasses(want(i))(status, body) == nil, "replayed /predict_batch answer") }},
		{name: "batch.serve.predict_stream",
			prep: func(i int) {
				rd.Reset(in.frames[frame(i)])
				dec.Reset(&rd)
				_, err := dec.Next()
				if err == nil {
					_, _, err = dec.MatrixDims()
				}
				check(err == nil, "frame header")
			},
			f: func(i, parent int) {
				err2 = local.Batcher().PredictStream(frameRows, out, func(dst []float64) error {
					if parent < 0 {
						return dec.Floats(dst)
					}
					id := rec.begin("batch.wire.decode", parent, i)
					defer rec.end(id)
					return dec.Floats(dst)
				})
			},
			post: func(i int) { check(err2 == nil && sameClasses(out, want(i)), "PredictStream") }},
		{name: "batch.encoding.encode",
			prep: func(i int) { rows64(x64, all64, i) },
			f:    func(int, int) { enc.EncodeBatchInto(x64, h64) }},
		{name: "batch.model.score",
			prep: func(i int) { rows64(h64, encoded, i) },
			f:    func(int, int) { mdl.PredictBatchInto(h64, s64, out) },
			post: func(i int) { check(sameClasses(out, want(i)), "kernel batch predict") }},
	})
	m["serve.batch_handler_allocs"] = allocsPerCall(func(i int) { br.serve(in.frames[i%len(in.frames)]) })
	all := rec.snapshot()
	self := selfByName(all)
	bc := median(bst.lat("predict"))
	bh, bs := spanMs(rec, "batch.serve.handler"), spanMs(rec, "batch.serve.predict_stream")
	bd, bself := median(durationsByName(all)["batch.wire.decode"]), median(self["batch.serve.predict_stream"])
	be, bsc := spanMs(rec, "batch.encoding.encode"), spanMs(rec, "batch.model.score")
	m["http.batch_self_ms"] = remainder(led, "http.batch_self_ms", bc-bh)
	m["serve.batch_handler_us"] = bh * 1e3
	m["wire.decode_us"] = bd * 1e3
	m["serve.predict_stream_ms"] = bself
	m["encoding.encode_row_us"] = be * 1e3 / frameRows
	m["model.score_row_us"] = bsc * 1e3 / frameRows
	m["mat.batch_encode_gflops"] = 2 * frameRows * float64(q) * float64(d) / (be / 1e3) / 1e9
	breakdown("predict-batch: client latency_p50", bc, "ms", []part{
		{"http.batch_self (remainder: net/http, loopback, core sharing)", bc - bh, false}, {"serve.batch_handler", bh - bs, true},
		{"wire.decode", bd, false}, {"serve.predict_stream without the kernels", bself - be - bsc, true},
		{"encoding.encode (64 rows)", be, false}, {"model.score (64 rows)", bsc, false},
	})
	return nil
}

func traceTenants(cfg config, led *ledger, m metrics, overhead map[string]float64, spans map[string][]span) error {
	in, err := genTenants(cfg)
	if err != nil {
		return err
	}
	srv, err := launch(cfg.server, in.serverArgs(), in.install(cfg.seed))
	if err != nil {
		return err
	}
	defer srv.kill()
	if err := in.fetchBoot(srv); err != nil {
		return err
	}
	ops, labels := in.allOps()
	accuracyPass(srv.base, ops, labels, led)
	s := &schedule{in: in}
	trec := newRecorder()
	plain := runLoad(srv.base, tenantConns, cfg.tracePhase(), 0, s.next, led, "trace", nil)
	st0, err := srv.registryStats()
	if err != nil {
		return err
	}
	before := *led.phase("trace")
	traced := runLoad(srv.base, tenantConns, cfg.tracePhase(), 0, s.next, led, "trace", trec)
	after := *led.phase("trace")
	st1, err := srv.registryStats()
	if err != nil {
		return err
	}
	checkFeedback(srv, s, led)
	led.add("teardown", srv.stop(), 0, "server did not drain cleanly on SIGTERM")
	spans["tenants.client"] = trec.snapshot()
	rec := newRecorder()
	defer func() { spans["tenants.replay"] = rec.snapshot() }()
	overhead["tenants"] = median(traced.lat("predict"))/median(plain.lat("predict")) - 1
	rows := 0
	for _, d := range traced.done {
		rows += d.rows
	}
	reqs := float64(after.Sent - before.Sent)
	wakes := float64(st1.Wakes - st0.Wakes)
	m["registry.wakes_per_krow"] = 1000 * wakes / float64(rows)
	m["registry.resident_ratio"] = 1 - wakes/reqs
	m["registry.throttled_frac"] = float64(after.Throttled-before.Throttled) / reqs
	m["learner.learn_p50_ms"] = median(traced.lat("learn"))

	// In-process: the same three tenants in a 2-slot registry.
	reg, err := registry.New(tenantPool)
	if err != nil {
		return err
	}
	defer reg.Close()
	lopts := &serve.LearnerOptions{Seed: cfg.seed}
	for _, t := range []struct {
		id   string
		m    *disthd.Model
		spec registry.Spec
	}{{"boot", in.boot, registry.Spec{}}, {"learn", in.learnModel, registry.Spec{Learner: lopts}}, {"bit", in.bitModel, registry.Spec{}}} {
		if err := reg.Install(t.id, t.m, t.spec); err != nil {
			return err
		}
	}
	// registry.dispatch_us: Acquire + Release on a resident tenant, timed
	// over a loop because one pair is far below the clock's resolution.
	const pairs = 20000
	t, err := reg.Acquire("bit") // makes "bit" resident
	if err != nil {
		return err
	}
	reg.Release(t)
	var dispatch []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			reg.Release(mustAcquire(reg, "bit"))
		}
		dispatch = append(dispatch, float64(time.Since(t0))/1e3/pairs)
	}
	m["registry.dispatch_us"] = median(dispatch)
	// registry.wake_ms: Acquire on a parked tenant; cycling three tenants
	// through two slots parks the next one every time.
	ids := []string{"boot", "learn", "bit"}
	for i := 0; i < 90; i++ {
		id := ids[i%3]
		ts, err := reg.TenantStats(id)
		if err != nil {
			return err
		}
		var t *registry.Tenant
		if !ts.Resident {
			rec.timed("tenants.registry.wake", -1, i, func() { t, err = reg.Acquire(id) })
		} else {
			t, err = reg.Acquire(id)
		}
		if err != nil {
			return err
		}
		reg.Release(t)
	}
	m["registry.wake_ms"] = spanMs(rec, "tenants.registry.wake")

	// The registry's HTTP handler, replayed with the live schedule.
	rs := &schedule{in: in}
	h := registry.NewServer(reg).Handler()
	reps := map[string]*replayer{}
	for i := 0; i < replayTenants; i++ {
		o := rs.next(0, i)
		if o.kind != "predict" {
			continue // learns and retrains are replayed below, through the learner itself
		}
		r := reps[o.path]
		if r == nil {
			r = newReplayer(h, o.path, o.ctype)
			reps[o.path] = r
		}
		var err error
		rec.timed("tenants.handler", -1, i, func() { err = o.check(r.serve(o.body)) })
		led.add("trace", err == nil, 0, fmt.Sprintf("replayed %s: %v", o.path, err))
	}
	tc := median(traced.lat("predict"))
	th := spanMs(rec, "tenants.handler")
	m["tenants.other_ms"] = remainder(led, "tenants.other_ms", tc-th)
	m["tenants.handler_us"] = th * 1e3
	breakdown("tenants: client latency_p50", tc, "ms", []part{
		{"tenants.other (remainder: net/http, loopback, core sharing)", tc - th, false},
		{"registry.dispatch", m["registry.dispatch_us"] / 1e3, false},
		{"tenants.handler without the dispatch", th - m["registry.dispatch_us"]/1e3, true},
	})
	fmt.Printf("  wakes %.0f of %.0f requests; a wake takes %.3f ms in-process\n", wakes, reqs, m["registry.wake_ms"])

	// The learner, driven directly: Feed each labeled row, then retrains.
	sw, err := serve.NewSwapper(in.learnModel)
	if err != nil {
		return err
	}
	l, err := serve.NewLearner(sw, *lopts)
	if err != nil {
		return err
	}
	for i, x := range in.learnX {
		rec.timed("learner.feed", -1, i, func() { _, err = l.Feed(x, in.learnY[i]) })
		if err != nil {
			return err
		}
		if (i+1)%(len(in.learnX)/4) == 0 {
			rec.timed("learner.retrain", -1, i, func() {
				if _, err = l.Retrain(false); err == nil {
					l.Wait()
				}
			})
			if err != nil {
				return err
			}
		}
	}
	ls := l.Snapshot()
	m["learner.feed_us"] = spanMs(rec, "learner.feed") * 1e3
	m["learner.retrain_ms"] = spanMs(rec, "learner.retrain")
	m["learner.gate_accept_ratio"] = float64(ls.GateAccepts) / float64(ls.GateAccepts+ls.GateRejects)
	fmt.Printf("  learner: %d retrains, %d gate accepts, %d rejects\n", ls.Retrains, ls.GateAccepts, ls.GateRejects)

	// The 1-bit tier through a replica, on the tenant's own frames.
	bitRep, err := in.bitModel.NewReplica(frameRows)
	if err != nil {
		return err
	}
	bit := in.tenants[2]
	out := make([]int, tenantFrameRows)
	for i := 0; i < 4*len(bit.frames); i++ {
		f := i % len(bit.frames)
		rows := bit.rows[f*tenantFrameRows : (f+1)*tenantFrameRows]
		rec.timed("bitpack.replica", -1, i, func() { _, err = bitRep.PredictBatch(in.bitModel, rows, out) })
		led.add("trace", err == nil && sameClasses(out, bit.want[f*tenantFrameRows:(f+1)*tenantFrameRows]), 0,
			"1-bit Replica.PredictBatch differs from the reference")
	}
	m["bitpack.predict_row_us"] = spanMs(rec, "bitpack.replica") * 1e3 / tenantFrameRows
	return nil
}

func mustAcquire(reg *registry.Registry, id string) *registry.Tenant {
	t, err := reg.Acquire(id)
	if err != nil {
		panic(err) // the tenant was just made resident and nothing else runs
	}
	return t
}
