package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	disthd "repro"
	"repro/serve"
	"repro/serve/internal/edge"
)

// maxSpecBody bounds install-spec bodies, which are small JSON documents;
// model-snapshot installs are bounded like /swap bodies.
const maxSpecBody = 1 << 20

// Server exposes a Registry over HTTP. Every per-model endpoint of the
// single-model serve.Server appears under /t/{model}/..., dispatched to
// the tenant's serving unit (waking it if parked):
//
//	POST /t/{model}/predict        POST /t/{model}/swap
//	POST /t/{model}/predict_batch  POST /t/{model}/learn
//	GET  /t/{model}/healthz        POST /t/{model}/retrain
//	GET  /t/{model}/model          POST /t/{model}/quantize
//	GET  /t/{model}/stats          (tenant row: registry gauges + serve snapshot)
//
// plus the admin plane:
//
//	PUT    /t/{model}   install — JSON InstallSpec (train a demo model) or
//	                    a Model.Save snapshot body (what GET /model emits),
//	                    negotiated on Content-Type
//	DELETE /t/{model}   drain in-flight requests, then remove
//	GET    /models      list every tenant with shape and residency
//	GET    /stats       aggregate registry snapshot (Stats)
//
// and the default-tenant alias: /predict, /predict_batch, /healthz,
// /model, /swap, /learn, /retrain, and /quantize at the root resolve to
// the default tenant through the exact same serve.Server handlers, so a
// single-model client keeps working byte-identically against a registry
// process. The one root route that changes meaning is GET /stats, which
// reports the registry aggregate — the default tenant's serve snapshot is
// inside it (and at GET /t/{model}/stats).
//
// Requests to an unknown tenant answer 404; requests that would need to
// wake a tenant while every pooled replica is actively serving answer 429
// (admission control — retry after in-flight work drains). Dispatch adds
// no allocations to the per-tenant hot path: tenant resolution is one
// mutex-guarded map lookup bracketing the inner handler.
type Server struct {
	reg *Registry
	mux *http.ServeMux
	hs  *http.Server
}

// endpoint is a serve.Server handler method expression — calling through
// it costs nothing per request, unlike binding a method value.
type endpoint = func(*serve.Server, http.ResponseWriter, *http.Request)

// NewServer wraps reg in the HTTP surface. Closing the Server closes the
// registry too.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	for _, route := range []struct {
		pattern string // without the /t/{model} prefix
		f       endpoint
	}{
		{"POST /predict", (*serve.Server).ServePredict},
		{"POST /predict_batch", (*serve.Server).ServePredictBatch},
		{"GET /healthz", (*serve.Server).ServeHealthz},
		{"GET /model", (*serve.Server).ServeModel},
		{"POST /swap", (*serve.Server).ServeSwap},
		{"POST /learn", (*serve.Server).ServeLearn},
		{"POST /retrain", (*serve.Server).ServeRetrain},
		{"POST /quantize", (*serve.Server).ServeQuantize},
	} {
		h := s.forward(route.f)
		method, path, _ := strings.Cut(route.pattern, " ")
		s.mux.HandleFunc(method+" /t/{model}"+path, h)
		s.mux.HandleFunc(route.pattern, h) // default-tenant alias
	}
	s.mux.HandleFunc("GET /t/{model}/stats", s.handleTenantStats)
	s.mux.HandleFunc("PUT /t/{model}", s.handleInstall)
	s.mux.HandleFunc("DELETE /t/{model}", s.handleRemove)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		edge.WriteJSON(w, http.StatusOK, s.reg.Stats())
	})
	s.hs = edge.NewHTTPServer(s.mux)
	return s
}

// Registry returns the wrapped registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the route table, mountable under any mux.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Close or a listener error, blocking
// like http.Server.ListenAndServe.
func (s *Server) ListenAndServe(addr string) error {
	s.hs.Addr = addr
	return s.hs.ListenAndServe()
}

// Close drains in the same order as the single-model server: the registry
// first — intake stops (late requests get 503) and every tenant's
// accepted micro-batches flush — then the HTTP listener shuts down, which
// completes promptly because no handler still waits on a batch.
func (s *Server) Close() error {
	s.reg.Close()
	return edge.Shutdown(s.hs)
}

// forward builds the handler for one per-tenant endpoint: resolve the
// tenant (the {model} path segment; empty on the alias routes selects the
// default), pin it resident for the duration, and run the single-model
// handler against its serving unit. Built once per route at mux setup —
// the per-request path allocates nothing of its own.
func (s *Server) forward(f endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.reg.Acquire(r.PathValue("model"))
		if err != nil {
			edge.WriteError(w, statusFor(err), err)
			return
		}
		defer s.reg.Release(t)
		f(t.Server(), w, r)
	}
}

// handleTenantStats serves one tenant's row — registry gauges plus, while
// resident, the serve snapshot. Deliberately not routed through forward:
// reading a parked tenant's stats must not wake it.
func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	ts, err := s.reg.TenantStats(r.PathValue("model"))
	if err != nil {
		edge.WriteError(w, statusFor(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, ts)
}

// modelsResponse is the GET /models body.
type modelsResponse struct {
	// Default is the tenant the root alias routes resolve to.
	Default string `json:"default"`
	// Tenants lists every registered tenant in install order.
	Tenants []TenantStats `json:"tenants"`
}

// handleModels lists the registered tenants.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	st := s.reg.Stats()
	edge.WriteJSON(w, http.StatusOK, modelsResponse{Default: st.DefaultTenant, Tenants: st.PerTenant})
}

// InstallSpec is the JSON body of PUT /t/{model}: train a model on one of
// the built-in synthetic benchmarks and register it under the path's
// model ID. (Installing a pre-trained model instead is the non-JSON
// branch: PUT the Model.Save snapshot bytes directly.)
type InstallSpec struct {
	// Demo names the synthetic benchmark to train on (disthd.BenchmarkNames).
	Demo string `json:"demo"`
	// Dim is the hypervector dimensionality D (default 512, at most 10000).
	Dim int `json:"dim"`
	// Scale is the dataset scale (default 0.1, at most 1).
	Scale float64 `json:"scale"`
	// Seed drives training and the learner (default 42).
	Seed uint64 `json:"seed"`
	// Iterations overrides the training iteration count when positive
	// (at most 200).
	Iterations int `json:"iterations"`
	// Replicas is the tenant's pool cost while resident (default 1, at most 64).
	Replicas int `json:"replicas"`
	// MaxBatch caps the tenant's micro-batch rows (default 64, at most 1024).
	MaxBatch int `json:"max_batch"`
	// Learn attaches online learning (/t/{model}/learn, /retrain) with
	// default learner options.
	Learn bool `json:"learn"`
	// Quantize deploys a quantized tier at install ("1bit"): the trained
	// f32 model is sign-quantized and published only if it holds within
	// QuantizeMargin of f32 accuracy on the benchmark's test split — a
	// rejected quantization installs the f32 model instead.
	Quantize string `json:"quantize"`
	// QuantizeMargin is the gate floor for Quantize (default -0.02).
	QuantizeMargin float64 `json:"quantize_margin"`
	// Default additionally makes this tenant the root-alias default.
	Default bool `json:"default"`
}

// Install bounds. An install names sizes that drive allocation (a
// resident replica leases max_batch×(features+dim+classes) float64s) and
// training inside the handler, so each is checked before either starts;
// a snapshot's own shape is held to the same dim and to width bounds no
// benchmark comes near. Zero still selects the default.
const (
	maxInstallReplicas   = 64
	maxInstallBatch      = 1024
	maxInstallDim        = 10000
	maxInstallIterations = 200
	maxInstallScale      = 1.0
	maxInstallFeatures   = 10000
	maxInstallClasses    = 10000
)

// checkSize rejects a size outside [0, max], NaN included.
func checkSize(name string, v, max float64) error {
	if v >= 0 && v <= max {
		return nil
	}
	return fmt.Errorf("registry: install %s %v out of range [0, %v]", name, v, max)
}

// checkServing rejects out-of-range serving options.
func checkServing(replicas, maxBatch int) error {
	return errors.Join(checkSize("replicas", float64(replicas), maxInstallReplicas),
		checkSize("max_batch", float64(maxBatch), maxInstallBatch))
}

// checkShape rejects a snapshot whose shape is out of range.
func checkShape(m *disthd.Model) error {
	return errors.Join(checkSize("dim", float64(m.Dim()), maxInstallDim),
		checkSize("features", float64(m.Features()), maxInstallFeatures),
		checkSize("classes", float64(m.Classes()), maxInstallClasses))
}

// check rejects out-of-range sizes.
func (is InstallSpec) check() error {
	return errors.Join(checkServing(is.Replicas, is.MaxBatch),
		checkSize("dim", float64(is.Dim), maxInstallDim),
		checkSize("iterations", float64(is.Iterations), maxInstallIterations),
		checkSize("scale", is.Scale, maxInstallScale))
}

// Build trains the spec's model (and quantized tier, when asked) and
// resolves the tenant's serving Spec — the shared install path behind
// PUT /t/{model} JSON bodies and disthd-serve's -registry boot flags.
// Out-of-range sizes are rejected before anything is trained.
func (is InstallSpec) Build() (*disthd.Model, Spec, error) {
	if err := is.check(); err != nil {
		return nil, Spec{}, err
	}
	sp := Spec{Options: serve.Options{Replicas: is.Replicas, MaxBatch: is.MaxBatch}}
	if is.Learn {
		sp.Learner = &serve.LearnerOptions{Seed: is.Seed}
	}
	m, err := is.train()
	if err != nil {
		return nil, Spec{}, err
	}
	return m, sp, nil
}

// train builds the spec's model (and quantized tier, when asked).
func (is InstallSpec) train() (*disthd.Model, error) {
	if is.Demo == "" {
		return nil, fmt.Errorf("install spec needs \"demo\" (one of %v)", disthd.BenchmarkNames())
	}
	scale := is.Scale
	if scale == 0 {
		scale = 0.1
	}
	seed := is.Seed
	if seed == 0 {
		seed = 42
	}
	train, test, err := disthd.SyntheticBenchmark(is.Demo, scale, seed)
	if err != nil {
		return nil, err
	}
	cfg := disthd.DefaultConfig()
	if is.Dim > 0 {
		cfg.Dim = is.Dim
	}
	if is.Iterations > 0 {
		cfg.Iterations = is.Iterations
	}
	cfg.Seed = seed
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		return nil, err
	}
	switch is.Quantize {
	case "":
		return m, nil
	case "1bit":
		q, err := m.Quantize1Bit()
		if err != nil {
			return nil, err
		}
		margin := is.QuantizeMargin
		if margin == 0 {
			margin = -0.02
		}
		v, err := disthd.NewGate(disthd.GateConfig{MinMargin: margin}).Evaluate(m, q, test.X, test.Y)
		if err != nil {
			return nil, err
		}
		if !v.Publish {
			return m, nil // rejected tier: the f32 model installs instead
		}
		return q, nil
	default:
		return nil, fmt.Errorf("unknown quantize tier %q (only \"1bit\")", is.Quantize)
	}
}

// handleInstall registers (or replaces) a tenant. Content negotiation
// mirrors the serving plane: a JSON body is an InstallSpec trained here,
// any other body is Model.Save snapshot bytes — exactly what GET /model
// emits and POST /swap accepts — with options in the query string
// (?replicas=, ?max_batch=, ?learn=1, ?default=1).
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("model")
	var (
		m    *disthd.Model
		spec Spec
		def  bool
	)
	if ct := r.Header.Get("Content-Type"); ct == "" || strings.HasPrefix(ct, "application/json") {
		var is InstallSpec
		body := http.MaxBytesReader(w, r.Body, maxSpecBody)
		if err := json.NewDecoder(body).Decode(&is); err != nil {
			edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("decode install spec: %w", err))
			return
		}
		mm, sp, err := is.Build()
		if err != nil {
			edge.WriteError(w, http.StatusBadRequest, err)
			return
		}
		m, spec, def = mm, sp, is.Default
	} else {
		q := r.URL.Query()
		spec.Options.Replicas, _ = strconv.Atoi(q.Get("replicas"))
		spec.Options.MaxBatch, _ = strconv.Atoi(q.Get("max_batch"))
		if err := checkServing(spec.Options.Replicas, spec.Options.MaxBatch); err != nil {
			edge.WriteError(w, http.StatusBadRequest, err)
			return
		}
		mm, err := disthd.Load(http.MaxBytesReader(w, r.Body, edge.MaxModelBody))
		if err != nil {
			edge.WriteError(w, edge.BodyStatus(err), fmt.Errorf("decode model snapshot: %w", err))
			return
		}
		if err := checkShape(mm); err != nil {
			edge.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if q.Get("learn") == "1" {
			seed, _ := strconv.ParseUint(q.Get("seed"), 10, 64)
			spec.Learner = &serve.LearnerOptions{Seed: seed}
		}
		m, def = mm, q.Get("default") == "1"
	}
	if err := s.reg.Install(id, m, spec); err != nil {
		edge.WriteError(w, statusFor(err), err)
		return
	}
	if def {
		if err := s.reg.SetDefault(id); err != nil {
			edge.WriteError(w, statusFor(err), err)
			return
		}
	}
	ts, err := s.reg.TenantStats(id)
	if err != nil {
		edge.WriteError(w, statusFor(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, ts)
}

// handleRemove drains and deletes a tenant.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("model")
	if err := s.reg.Remove(id); err != nil {
		edge.WriteError(w, statusFor(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]string{"removed": id})
}

// statusFor maps registry errors onto status codes: unknown tenant 404,
// exhausted pool 429 (admission control — the client should back off and
// retry), closed registry 503, anything else 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrPoolExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
