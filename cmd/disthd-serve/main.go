// Command disthd-serve runs the micro-batching inference server over a
// trained DistHD model.
//
// Usage:
//
//	disthd-serve -model model.bin -addr :8080
//	disthd-serve -demo UCIHAR -dim 512 -addr :8080   # train a demo model
//	disthd-serve -demo UCIHAR -learn -auto-retrain   # drift-adaptive server
//	disthd-serve -demo PAMAP2 -dim 2048 -quantize 1bit  # packed 1-bit tier
//
// -quantize 1bit deploys the bitpacked inference tier: the f32 model is
// trained (or loaded) first, sign-quantized, and — when -demo provides a
// test split to judge on — published only if the packed tier's accuracy
// stays within disthd.DefaultQuantizeMargin (2 points) of the f32
// champion's (the same judgment POST /quantize applies at runtime; a
// rejected quantization keeps the f32 champion serving and says so). A
// -model snapshot has no holdout, so it publishes ungated with a warning —
// or just ship a version-2 (packed) snapshot, which serves quantized as-is.
//
// The server coalesces concurrent /predict calls into micro-batches and
// runs them through the zero-allocation batched-GEMM kernels; /swap
// hot-swaps the model mid-traffic from a Model.Save snapshot:
//
//	curl -X POST --data-binary @new-model.bin localhost:8080/swap
//
// With -learn, the server also accepts labeled feedback and closes the
// DistHD loop online: /learn ingests {"x":[...],"label":k}, windowed
// accuracy and per-class drift attribution are tracked in /stats, and
// /retrain (or drift itself, with -auto-retrain) warm-retrains a challenger
// on the feedback window in the background — budget scaled by the measured
// drift severity — and hot-swaps it in only after it beats the serving
// incumbent on a stratified holdout (the champion/challenger gate; disable
// with -no-gate, tune with -gate-margin, bypass one verdict with
// /retrain?force=1). Requests never wait on training, and a rejected
// challenger never serves.
//
// Endpoints: POST /predict, POST /predict_batch, GET /healthz, GET /stats,
// GET /model, POST /swap, POST /learn, POST /retrain, POST /quantize.
// /predict, /predict_batch, and /learn speak JSON by default and the
// compact binary frame protocol (repro/serve/wire) when the request's
// Content-Type is application/x-disthd-frame — the response mirrors the
// request's format, and /stats counts requests per format; try it with
// `hdbench -loadgen -http <addr> -wire binary`. /healthz tells the
// truth: it reports "degraded" (503 with -strict-health) while the learner
// is in post-rejection backoff or a retrain has run past its 2-minute
// stall deadline, and GET /model exports the serving model in the /swap
// wire format — the two hooks a cluster coordinator (cmd/disthd-cluster)
// builds on. See the serve package for the wire formats, `hdbench
// -loadgen` for the closed-loop load generator, `hdbench -driftgen` for
// the streaming drift benchmark, and `hdbench -chaos` for the
// fault-injection load harness.
// Registry mode serves MANY models from one process:
//
//	disthd-serve -registry -pool 8 \
//	    -tenant 'voice=ISOLET,dim=1024' \
//	    -tenant 'activity=PAMAP2,dim=2048,quantize=1bit' \
//	    -tenant 'vitals=DIABETES,dim=512,learn'
//
// Each -tenant flag (repeatable; or -manifest tenants.json, a JSON array
// of install specs with an "id" field) trains one model and registers it
// in a serve/registry.Registry. Every single-model endpoint then lives at
// /t/{model}/... per tenant, the first tenant also answers the plain
// single-model routes (default-tenant alias), and PUT/DELETE /t/{model},
// GET /models, and the aggregate GET /stats manage the fleet at runtime.
// -pool caps the total resident serving replicas: cold tenants are parked
// LRU (scratch released, model kept) to admit hot ones, and a request
// that cannot be admitted answers 429. See the serve/registry package.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/registry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		model    = flag.String("model", "", "path to a Model.Save snapshot to serve")
		demo     = flag.String("demo", "", "train a demo model on this synthetic benchmark (e.g. UCIHAR) instead of loading one")
		dim      = flag.Int("dim", 512, "hypervector dimensionality for -demo")
		scale    = flag.Float64("scale", 0.2, "dataset scale for -demo")
		seed     = flag.Uint64("seed", 42, "random seed for -demo and retraining")
		maxBatch = flag.Int("max-batch", 64, "flush a micro-batch at this many rows")
		minFill  = flag.Int("min-fill", 1, "linger up to 2ms for this many rows before flushing")
		replicas = flag.Int("replicas", 0, "serving replicas (0 = GOMAXPROCS)")
		quantize = flag.String("quantize", "", "deploy a quantized inference tier (\"1bit\" = packed sign bits on XOR+popcount kernels)")

		learn     = flag.Bool("learn", false, "enable online learning (/learn, /retrain, learner gauges in /stats)")
		learnWin  = flag.Int("learn-window", 512, "labeled-feedback window retrains draw from")
		recentWin = flag.Int("learn-recent", 64, "span of the windowed accuracy estimate")
		driftThr  = flag.Float64("drift-threshold", 0.15, "windowed-accuracy drop below baseline that flags drift (0 re-selects the default; use e.g. 0.001 for a hair trigger)")
		retrIters = flag.Int("retrain-iters", 5, "warm-retrain budget in pipeline iterations")
		autoRetr  = flag.Bool("auto-retrain", false, "retrain in the background whenever drift is detected")
		cooldown  = flag.Duration("retrain-cooldown", 10*time.Second, "minimum gap between drift-triggered retrains")
		gateMarg  = flag.Float64("gate-margin", 0, "holdout-accuracy lead a retrained challenger needs to publish (0 = a tie publishes)")
		noGate    = flag.Bool("no-gate", false, "publish every retrain unconditionally instead of gating champion vs challenger on the holdout")
		strictHlz = flag.Bool("strict-health", false, "answer /healthz with 503 while degraded (learner backoff or wedged retrain) instead of 200 + status")

		useRegistry = flag.Bool("registry", false, "multi-tenant mode: serve every -tenant/-manifest model from one registry (/t/{model}/... routes)")
		pool        = flag.Int("pool", 0, "registry replica-pool capacity; cold tenants park LRU to fit (0 = every boot tenant stays resident)")
		manifest    = flag.String("manifest", "", "registry boot manifest: JSON array of install specs, each with an \"id\" (see -tenant for the fields)")
		tenants     tenantFlags
	)
	flag.Var(&tenants, "tenant", "registry tenant as id=DEMO[,dim=N][,scale=F][,seed=N][,iterations=N][,replicas=N][,max_batch=N][,learn][,quantize=1bit] (repeatable)")
	flag.Parse()

	if *useRegistry {
		runRegistry(*addr, *pool, *manifest, tenants)
		return
	}

	m, gateSplit, err := loadModel(*model, *demo, *dim, *scale, *seed)
	if err != nil {
		log.Fatalf("disthd-serve: %v", err)
	}
	if *quantize != "" {
		m, err = quantizeModel(m, *quantize, gateSplit)
		if err != nil {
			log.Fatalf("disthd-serve: %v", err)
		}
	}
	tier := "f32"
	if m.Quantized() {
		tier = "1bit"
	}
	log.Printf("serving model: %d features, D=%d, %d classes, %s tier", m.Features(), m.Dim(), m.Classes(), tier)

	srv, err := serve.New(m, serve.Options{
		MaxBatch: *maxBatch,
		MinFill:  *minFill,
		Replicas: *replicas,
	})
	if err != nil {
		log.Fatalf("disthd-serve: %v", err)
	}

	if *learn {
		lr, err := serve.NewLearner(srv.Batcher().Swapper(), serve.LearnerOptions{
			Window:         *learnWin,
			RecentWindow:   *recentWin,
			DriftThreshold: *driftThr,
			GateMargin:     *gateMarg,
			GateDisabled:   *noGate,
			Iterations:     *retrIters,
			Auto:           *autoRetr,
			Cooldown:       *cooldown,
			Seed:           *seed,
		})
		if err != nil {
			log.Fatalf("disthd-serve: %v", err)
		}
		srv.AttachLearner(lr)
		log.Printf("online learning on (window=%d drift-threshold=%.2f auto-retrain=%v gate=%v margin=%.3f)",
			*learnWin, *driftThr, *autoRetr, !*noGate, *gateMarg)
	}
	srv.SetStrictHealth(*strictHlz)

	// SIGTERM/SIGINT drain: Server.Close stops Batcher intake and flushes
	// every accepted micro-batch BEFORE shutting the HTTP listener down, so
	// no accepted request is dropped mid-batch. ListenAndServe returns as
	// soon as the shutdown begins; main must then wait for the drain to
	// finish or the process would exit with batches still in flight.
	drained := make(chan struct{})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(drained)
		<-stop
		log.Printf("draining...")
		if err := srv.Close(); err != nil {
			log.Printf("disthd-serve: shutdown: %v", err)
		}
	}()

	log.Printf("listening on %s (max-batch=%d min-fill=%d)", *addr, *maxBatch, *minFill)
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("disthd-serve: %v", err)
	}
	<-drained
	log.Printf("bye: %+v", srv.Stats())
}

// loadModel reads a snapshot from disk or trains a demo model. For -demo
// it also returns the test split, which -quantize uses as the gate
// holdout; a disk snapshot has none.
func loadModel(path, demo string, dim int, scale float64, seed uint64) (*disthd.Model, disthd.DataSplit, error) {
	switch {
	case path != "" && demo != "":
		return nil, disthd.DataSplit{}, fmt.Errorf("-model and -demo are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, disthd.DataSplit{}, err
		}
		defer f.Close()
		m, err := disthd.Load(f)
		return m, disthd.DataSplit{}, err
	case demo != "":
		train, test, err := disthd.SyntheticBenchmark(demo, scale, seed)
		if err != nil {
			return nil, disthd.DataSplit{}, err
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = dim
		cfg.Seed = seed
		log.Printf("training demo model on %s (scale %.2f, D=%d)...", demo, scale, dim)
		m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		return m, test, err
	default:
		return nil, disthd.DataSplit{}, fmt.Errorf("need -model <file> or -demo <benchmark> (one of %v)", disthd.BenchmarkNames())
	}
}

// quantizeModel deploys the requested quantized tier over the f32 model m,
// gating on the holdout split when one exists. A rejected quantization
// returns the f32 champion — serving stays correct, just not packed.
func quantizeModel(m *disthd.Model, kind string, holdout disthd.DataSplit) (*disthd.Model, error) {
	if kind != "1bit" {
		return nil, fmt.Errorf("unknown -quantize tier %q (only \"1bit\")", kind)
	}
	if m.Quantized() {
		log.Printf("model snapshot is already 1-bit packed; nothing to quantize")
		return m, nil
	}
	q, v, err := m.Quantize1BitGated(holdout.X, holdout.Y, disthd.DefaultQuantizeMargin)
	if err != nil {
		return nil, err
	}
	if v.HoldoutSize == 0 {
		log.Printf("WARNING: no holdout to gate on (-model snapshot); publishing the 1-bit tier ungated")
		return q, nil
	}
	log.Printf("quantize gate: f32 %.4f vs 1bit %.4f on %d held-out samples (margin %+.4f, floor %+.4f)",
		v.ChampionAccuracy, v.ChallengerAccuracy, v.HoldoutSize, v.Margin, disthd.DefaultQuantizeMargin)
	if !v.Publish {
		log.Printf("WARNING: 1-bit tier REJECTED by the gate; serving the f32 champion instead")
		return m, nil
	}
	log.Printf("1-bit tier published: packed classes, XOR+popcount scoring")
	return q, nil
}

// bootSpec is one registry tenant to install at boot: a registry install
// spec plus the model ID it registers under.
type bootSpec struct {
	ID string `json:"id"`
	registry.InstallSpec
}

// tenantFlags collects repeated -tenant values.
type tenantFlags []bootSpec

// String renders the accumulated flags (flag.Value).
func (t *tenantFlags) String() string {
	ids := make([]string, len(*t))
	for i, b := range *t {
		ids[i] = b.ID
	}
	return strings.Join(ids, ",")
}

// Set parses one -tenant value: "id=DEMO" followed by comma-separated
// options mirroring the PUT /t/{model} JSON install spec.
func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	id, demo, ok := strings.Cut(parts[0], "=")
	if !ok || id == "" || demo == "" {
		return fmt.Errorf("-tenant %q: want id=DEMO[,option=value...]", v)
	}
	b := bootSpec{ID: id, InstallSpec: registry.InstallSpec{Demo: demo}}
	for _, opt := range parts[1:] {
		key, val, _ := strings.Cut(opt, "=")
		var err error
		switch key {
		case "dim":
			b.Dim, err = strconv.Atoi(val)
		case "scale":
			b.Scale, err = strconv.ParseFloat(val, 64)
		case "seed":
			b.Seed, err = strconv.ParseUint(val, 10, 64)
		case "iterations":
			b.Iterations, err = strconv.Atoi(val)
		case "replicas":
			b.Replicas, err = strconv.Atoi(val)
		case "max_batch":
			b.MaxBatch, err = strconv.Atoi(val)
		case "learn":
			b.Learn = true
		case "quantize":
			b.Quantize = val
		default:
			return fmt.Errorf("-tenant %q: unknown option %q", v, key)
		}
		if err != nil {
			return fmt.Errorf("-tenant %q: option %q: %v", v, key, err)
		}
	}
	*t = append(*t, b)
	return nil
}

// loadManifest reads a JSON boot manifest: an array of install specs with
// "id" fields. A field no spec has is an error, as on PUT /t/{model}.
func loadManifest(path string) ([]bootSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var specs []bootSpec
	if err := registry.DecodeSpec(f, &specs); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return specs, nil
}

// runRegistry boots the multi-tenant server: train and install every
// boot tenant, then serve the registry HTTP surface with the same
// SIGTERM drain discipline as single-model mode.
func runRegistry(addr string, pool int, manifest string, tenants tenantFlags) {
	boot := []bootSpec(tenants)
	if manifest != "" {
		specs, err := loadManifest(manifest)
		if err != nil {
			log.Fatalf("disthd-serve: %v", err)
		}
		boot = append(boot, specs...)
	}
	if len(boot) == 0 {
		log.Fatalf("disthd-serve: -registry needs at least one -tenant or a -manifest")
	}
	if pool == 0 {
		// Default capacity holds every boot tenant resident at once.
		for _, b := range boot {
			r := b.Replicas
			if r == 0 {
				r = 1
			}
			pool += r
		}
	}
	reg, err := registry.New(pool)
	if err != nil {
		log.Fatalf("disthd-serve: %v", err)
	}
	for _, b := range boot {
		log.Printf("installing tenant %q: %s (scale %.2f, D=%d)...", b.ID, b.Demo, b.Scale, b.Dim)
		m, spec, err := b.Build()
		if err != nil {
			log.Fatalf("disthd-serve: tenant %q: %v", b.ID, err)
		}
		if err := reg.Install(b.ID, m, spec); err != nil {
			log.Fatalf("disthd-serve: tenant %q: %v", b.ID, err)
		}
		tier := "f32"
		if m.Quantized() {
			tier = "1bit"
		}
		log.Printf("tenant %q: %d features, D=%d, %d classes, %s tier, learn=%v",
			b.ID, m.Features(), m.Dim(), m.Classes(), tier, spec.Learner != nil)
	}
	srv := registry.NewServer(reg)

	drained := make(chan struct{})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(drained)
		<-stop
		log.Printf("draining...")
		if err := srv.Close(); err != nil {
			log.Printf("disthd-serve: shutdown: %v", err)
		}
	}()

	log.Printf("registry listening on %s (%d tenants, pool capacity %d, default tenant %q)",
		addr, len(boot), pool, reg.Default())
	if err := srv.ListenAndServe(addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("disthd-serve: %v", err)
	}
	<-drained
	log.Printf("bye: %+v", reg.Stats())
}
