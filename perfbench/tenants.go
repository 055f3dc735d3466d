package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	disthd "repro"
	"repro/serve/wire"
)

// The tenants workload runs `disthd-serve -registry` with a 2-replica pool
// and three one-replica tenants of different shapes, so one is always
// parked: a plain f32 boot tenant the server trains itself (PAMAP2-shaped,
// the one tenant -registry needs on its command line), an f32 learning
// tenant (UCIHAR-shaped, D=512) and a 1-bit quantized tenant
// (ISOLET-shaped, D=1024), both installed over PUT /t/{id} from snapshots.
//
// Two closed loops send the traffic, taking turns at one schedule, so the
// order of the requests, and with it which of them find their tenant
// parked, is fixed by the schedule: the tenants take turns in bursts of
// tenantBurst requests, and cycling three tenants through two slots parks
// the next one every time, so the first request of each burst wakes its
// tenant — about a quarter of the predictions, which puts the p90 among the
// wakes and the p50 among the resident requests, away from the edge
// between them. Two loops keep both cores busy, and frames of MaxBatch rows
// keep the server's work per request large next to the hand-offs between
// client and server: on a busy host each hand-off to an idle virtual CPU
// waits for the hypervisor to wake it.
const (
	tenantPool      = 2
	tenantConns     = 2
	tenantBurst     = 4   // consecutive requests to one tenant
	tenantFrameRows = 64  // rows per binary frame (= MaxBatch)
	tenantRows      = 256 // distinct request rows per tenant
	learnEvery      = 4   // every 4th request to the learning tenant is a /learn
	retrainEvery    = 32  // POST /t/learn/retrain after every 32nd learn
)

type tenant struct {
	id     string
	rows   [][]float64
	labels []int
	want   []int // reference classes; nil for the learning tenant
	frames [][]byte
}

type tenantInputs struct {
	bootArgs    string
	learnSnap   string
	bitSnap     string
	learnModel  *disthd.Model
	bitModel    *disthd.Model
	boot        *disthd.Model // fetched from the server after set-up
	tenants     []*tenant     // boot, learn, bit
	learnFrames [][]byte
	learnX      [][]float64
	learnY      []int
	classes     map[string]int
}

func trainSnapshot(name string, scale float64, seed uint64, dim, rows int) (*disthd.Model, disthd.DataSplit, disthd.DataSplit, error) {
	tr, te, err := disthd.SyntheticBenchmark(name, scale, seed)
	if err != nil {
		return nil, tr, te, err
	}
	tc := disthd.DefaultConfig()
	tc.Dim, tc.Seed = dim, seed
	m, err := disthd.TrainWithConfig(tr.X[:rows], tr.Y[:rows], tr.Classes, tc)
	return m, tr, te, err
}

func genTenants(cfg config) (*tenantInputs, error) {
	in := &tenantInputs{classes: map[string]int{}}
	bootSeed := cfg.seed + 1
	in.bootArgs = fmt.Sprintf("boot=PAMAP2,dim=256,scale=0.05,seed=%d,iterations=5", bootSeed)
	bootTr, bootTe, err := disthd.SyntheticBenchmark("PAMAP2", 0.05, bootSeed)
	if err != nil {
		return nil, err
	}
	boot := &tenant{id: "boot",
		rows:   append(append([][]float64{}, bootTe.X...), bootTr.X...)[:tenantRows],
		labels: append(append([]int{}, bootTe.Y...), bootTr.Y...)[:tenantRows]}
	in.classes["boot"] = bootTr.Classes

	lm, ltr, lte, err := trainSnapshot("UCIHAR", 0.5, cfg.seed, 512, 400)
	if err != nil {
		return nil, err
	}
	learn := &tenant{id: "learn", rows: lte.X[:tenantRows], labels: lte.Y[:tenantRows]}
	in.learnX, in.learnY = ltr.X[400:], ltr.Y[400:]
	in.classes["learn"] = ltr.Classes
	for i, x := range in.learnX {
		in.learnFrames = append(in.learnFrames, wire.AppendLearn(nil, x, in.learnY[i]))
	}

	bm, btr, bte, err := trainSnapshot("ISOLET", 0.4, cfg.seed, 1024, 520)
	if err != nil {
		return nil, err
	}
	if bm, err = bm.Quantize1Bit(); err != nil {
		return nil, err
	}
	bit := &tenant{id: "bit", rows: bte.X[:tenantRows], labels: bte.Y[:tenantRows]}
	in.classes["bit"] = btr.Classes

	for _, s := range []struct {
		m    *disthd.Model
		path *string
		ref  **disthd.Model
		name string
	}{{lm, &in.learnSnap, &in.learnModel, "learn.dhd"}, {bm, &in.bitSnap, &in.bitModel, "bit.dhd"}} {
		b, ref, err := snapshot(s.m)
		if err != nil {
			return nil, err
		}
		*s.path = filepath.Join(cfg.dir, s.name)
		*s.ref = ref
		if err := os.WriteFile(*s.path, b, 0o644); err != nil {
			return nil, err
		}
	}
	if bit.want, err = in.bitModel.PredictBatch(bit.rows); err != nil {
		return nil, err
	}
	in.tenants = []*tenant{boot, learn, bit}
	for _, t := range in.tenants {
		for i := 0; i < tenantRows; i += tenantFrameRows {
			f, err := wire.AppendMatrixF64(nil, t.rows[i:i+tenantFrameRows], len(t.rows[i]))
			if err != nil {
				return nil, err
			}
			t.frames = append(t.frames, f)
		}
	}
	return in, nil
}

func (in *tenantInputs) serverArgs() []string {
	return []string{"-registry", "-pool", fmt.Sprint(tenantPool), "-tenant", in.bootArgs}
}

// install brings a fresh registry to "every tenant installed, /healthz 200".
func (in *tenantInputs) install(seed uint64) func(*server) error {
	return func(srv *server) error {
		if err := healthy(srv); err != nil {
			return err
		}
		for _, put := range []struct{ path, file string }{
			{fmt.Sprintf("/t/learn?learn=1&seed=%d", seed), in.learnSnap},
			{"/t/bit", in.bitSnap},
		} {
			b, err := os.ReadFile(put.file)
			if err != nil {
				return err
			}
			if _, err := srv.call("PUT", put.path, "application/octet-stream", b); err != nil {
				return err
			}
		}
		return healthy(srv)
	}
}

// fetchBoot loads the boot tenant's model from the server: the reference
// its answers are checked against.
func (in *tenantInputs) fetchBoot(srv *server) error {
	b, err := srv.call("GET", "/t/boot/model", "", nil)
	if err != nil {
		return err
	}
	ref, err := disthd.Load(bytes.NewReader(b))
	if err != nil {
		return err
	}
	in.boot = ref
	in.tenants[0].want, err = ref.PredictBatch(in.tenants[0].rows)
	return err
}

// predictOp is one binary frame to tenant t.
func (in *tenantInputs) predictOp(t *tenant, frame int) op {
	var check func(int, []byte) error
	if t.want != nil {
		check = checkClasses(t.want[frame*tenantFrameRows : (frame+1)*tenantFrameRows])
	} else {
		k := in.classes[t.id]
		check = func(status int, body []byte) error {
			got, err := decodeClasses(status, body)
			if err != nil {
				return err
			}
			if len(got) != tenantFrameRows {
				return fmt.Errorf("%d classes for %d rows", len(got), tenantFrameRows)
			}
			for _, c := range got {
				if c < 0 || c >= k {
					return fmt.Errorf("class %d outside [0,%d)", c, k)
				}
			}
			return nil
		}
	}
	return op{method: "POST", path: "/t/" + t.id + "/predict_batch", ctype: wire.ContentType,
		body: t.frames[frame], kind: "predict", rows: tenantFrameRows, check: check}
}

// schedule is the tenants traffic: bursts of tenantBurst frames to each
// tenant in turn; every learnEvery-th request to the learning tenant is a
// labeled /learn (never the first of a burst, which wakes the tenant), and
// after every retrainEvery-th learn the next request is POST /retrain. The
// connections take their requests from it in turn.
type schedule struct {
	mu      sync.Mutex
	in      *tenantInputs
	learns  int // learns sent
	retrain bool
	toLearn int
	sent    int
}

func (s *schedule) next(_, _ int) op {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retrain {
		s.retrain = false
		return op{method: "POST", path: "/t/learn/retrain", kind: "retrain", check: checkRetrain}
	}
	n := s.sent
	s.sent++
	round, k := n/tenantBurst, n%tenantBurst
	t := s.in.tenants[round%len(s.in.tenants)]
	frame := (round/len(s.in.tenants)*tenantBurst + k) % len(t.frames)
	if t.id == "learn" {
		s.toLearn++
		if s.toLearn%learnEvery == 0 {
			s.learns++
			if s.learns%retrainEvery == 0 {
				s.retrain = true
			}
			l := (s.learns - 1) % len(s.in.learnFrames)
			return op{method: "POST", path: "/t/learn/learn", ctype: wire.ContentType,
				body: s.in.learnFrames[l], kind: "learn", check: checkFeedAck}
		}
	}
	return s.in.predictOp(t, frame)
}

func checkFeedAck(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, body)
	}
	d := wire.NewDecoder(bytes.NewReader(body))
	typ, err := d.Next()
	if err != nil {
		return err
	}
	if typ != wire.TypeFeedAck {
		return fmt.Errorf("answer is a %v frame", typ)
	}
	_, err = d.FeedAck()
	return err
}

// checkRetrain accepts 202 (started) and 409 (one already in flight): the
// schedule fixes when retrains are asked for, the learner when they run.
func checkRetrain(status int, body []byte) error {
	if status != 202 && status != 409 {
		return fmt.Errorf("status %d: %s", status, body)
	}
	return nil
}

// registryStats is the part of GET /stats the benchmark reads: re-wakes
// of parked tenants since the server started.
type registryStats struct {
	Wakes uint64 `json:"wakes"`
}

func (srv *server) registryStats() (registryStats, error) {
	var st registryStats
	b, err := srv.call("GET", "/stats", "", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// learnerFeedback reads the learning tenant's feedback count, resident or
// parked.
func (srv *server) learnerFeedback() (uint64, error) {
	b, err := srv.call("GET", "/t/learn/stats", "", nil)
	if err != nil {
		return 0, err
	}
	var ts struct {
		Serve *struct {
			Learner *struct {
				Feedback uint64 `json:"feedback"`
			} `json:"learner"`
		} `json:"serve"`
		Learner *struct {
			Feedback uint64 `json:"feedback"`
		} `json:"learner"`
	}
	if err := json.Unmarshal(b, &ts); err != nil {
		return 0, err
	}
	switch {
	case ts.Serve != nil && ts.Serve.Learner != nil:
		return ts.Serve.Learner.Feedback, nil
	case ts.Learner != nil:
		return ts.Learner.Feedback, nil
	}
	return 0, fmt.Errorf("learning tenant reports no learner: %s", b)
}

func (in *tenantInputs) allOps() ([]op, func(k int) []int) {
	var ops []op
	var labels [][]int
	for _, t := range in.tenants {
		for f := range t.frames {
			ops = append(ops, in.predictOp(t, f))
			labels = append(labels, t.labels[f*tenantFrameRows:(f+1)*tenantFrameRows])
		}
	}
	return ops, func(k int) []int { return labels[k] }
}

// startTenants spawns the measured registries and returns the kept one,
// the median set-up time and its accuracy pass.
func startTenants(cfg config, in *tenantInputs, led *ledger) (*server, float64, float64, error) {
	srv, setup, err := spawnMeasured(cfg, in.serverArgs(), in.install(cfg.seed), led)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := in.fetchBoot(srv); err != nil {
		srv.kill()
		return nil, 0, 0, err
	}
	ops, labels := in.allOps()
	return srv, setup, accuracyPass(srv.base, ops, labels, led), nil
}

// checkFeedback is the learning tenant's end-of-run check: its feedback
// count equals the learns it answered.
func checkFeedback(srv *server, s *schedule, led *ledger) {
	fb, err := srv.learnerFeedback()
	note := ""
	if err != nil {
		note = err.Error()
	} else if fb != uint64(s.learns) {
		note = fmt.Sprintf("learner feedback %d, %d learns sent", fb, s.learns)
	}
	led.add("teardown", note == "", 0, note)
}

func runTenants(cfg config, led *ledger) (metrics, error) {
	in, err := genTenants(cfg)
	if err != nil {
		return nil, err
	}
	srv, setup, acc, err := startTenants(cfg, in, led)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	m := metrics{"setup_s": setup, "test_accuracy": acc}
	s := &schedule{in: in}
	if err := warmUntilCalm(srv.base, tenantConns, s.next, led); err != nil {
		return nil, err
	}
	st0, err := srv.registryStats()
	if err != nil {
		return nil, err
	}
	ls, err := timedServing(cfg, srv, tenantConns, s.next, led, m)
	if err != nil {
		return nil, err
	}
	st1, err := srv.registryStats()
	if err != nil {
		return nil, err
	}
	fmt.Printf("timed: %d learns (p50 %.3f ms), %d retrain requests, %d wakes\n",
		len(ls.lat("learn")), median(ls.lat("learn")), len(ls.lat("retrain")), st1.Wakes-st0.Wakes)
	checkFeedback(srv, s, led)
	led.add("teardown", srv.stop(), 0, "server did not drain cleanly on SIGTERM")
	return m, nil
}
