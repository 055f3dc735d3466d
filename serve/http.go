package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	disthd "repro"
	"repro/serve/internal/edge"
	"repro/serve/wire"
)

// Server exposes a Batcher over HTTP/JSON:
//
//	POST /predict        {"x":[...]}            -> {"class":3}
//	POST /predict_batch  {"x":[[...],[...]]}    -> {"classes":[3,1]}
//	GET  /healthz                               -> model shape + truthful status
//	GET  /stats                                 -> serve.Snapshot JSON
//	GET  /model          -> <Model.Save bytes>  (what /swap accepts)
//	POST /swap           <Model.Save bytes>     -> {"swaps":2}
//	POST /learn          {"x":[...],"label":3}  -> serve.FeedResult JSON
//	POST /retrain[?force=1]                     -> {"started":true,...}
//	POST /quantize[?force=1&margin=...]         -> {"published":true,...}
//
// /predict, /predict_batch, and /learn also speak the binary frame
// protocol (Content-Type application/x-disthd-frame, see repro/serve/wire)
// and answer in kind; batch frames decode straight into a pooled
// replica's leased scratch. Errors are JSON in both modes, and /stats
// counts requests per format so a fleet migration is observable.
//
// /learn and /retrain are live only after AttachLearner; without a learner
// they return 404. A /retrain challenger answers to the champion/challenger
// gate like any drift-triggered one; ?force=1 publishes it regardless of
// the verdict. /quantize deploys the 1-bit packed tier: the serving f32
// champion is sign-quantized and, when a learner holds holdout evidence,
// judged through the same gate (tolerating up to -margin accuracy
// regression) before publishing; a rejected quantization leaves the f32
// champion serving and answers 409 with the losing verdict. /model serves
// the champion's wire format and negotiates it via ?format=1bit|f32 (the
// X-DistHD-Format response header names what was sent). Prediction errors
// map to 400 (malformed input), 409 (/swap shape mismatch, /retrain
// already in flight or frozen champion, /quantize rejected), 413 (request
// body over the documented bound) or 503 (closed batcher). The server is hardened
// against misbehaving clients: header/read/idle timeouts on the
// http.Server and an http.MaxBytesReader around every POST body.
// /healthz reports "degraded" (with reasons; 503 under SetStrictHealth)
// when the attached learner is impaired, so a cluster coordinator's
// health probes can act on it. Create one with NewServer, mount Handler
// on any mux or call ListenAndServe, and Close to drain.
//
// Each route's handler is its exported Serve* method, so an outer router
// can mount single endpoints without rewriting the request path (a clone
// per call): serve/registry dispatches /t/{model}/... this way. Method
// filtering is then the outer router's job.
type Server struct {
	b            *Batcher
	learner      *Learner
	strictHealth bool
	mux          *http.ServeMux
	hs           *http.Server

	// edge serves /predict and /predict_batch over the Batcher and counts
	// requests per wire format (/learn adds to its counters).
	edge edge.Edge

	// Quantization gauges (/stats "quantization" block). They live here
	// rather than on Stats because /quantize is a rare operator action —
	// no hot-path counters needed.
	quantPublishes atomic.Uint64
	quantRejects   atomic.Uint64
	quantLastGate  atomic.Pointer[GateResult]
	quantMu        sync.Mutex // serializes ServeQuantize's read-gate-swap
}

// NewServer wraps an existing Batcher. The caller keeps ownership of the
// Batcher's lifecycle only if it never calls Server.Close (which closes
// both).
func NewServer(b *Batcher) *Server {
	s := &Server{b: b, mux: http.NewServeMux(), edge: edge.Edge{
		Name:         "serve",
		Predict:      func(_ context.Context, x []float64) (int, error) { return b.Predict(x) },
		PredictBatch: func(_ context.Context, rows [][]float64) ([]int, error) { return b.PredictBatch(rows) },
		Stream:       b.streamFrame,
		StatusFor:    statusFor,
	}}
	s.mux.HandleFunc("POST /predict", s.ServePredict)
	s.mux.HandleFunc("POST /predict_batch", s.ServePredictBatch)
	s.mux.HandleFunc("GET /healthz", s.ServeHealthz)
	s.mux.HandleFunc("GET /stats", s.ServeStats)
	s.mux.HandleFunc("GET /model", s.ServeModel)
	s.mux.HandleFunc("POST /swap", s.ServeSwap)
	s.mux.HandleFunc("POST /learn", s.ServeLearn)
	s.mux.HandleFunc("POST /retrain", s.ServeRetrain)
	s.mux.HandleFunc("POST /quantize", s.ServeQuantize)
	s.hs = edge.NewHTTPServer(s.mux)
	return s
}

// New builds a Swapper publishing m and a Batcher over it with opts, and
// wraps them in a Server — the one-call path cmd/disthd-serve uses.
func New(m *disthd.Model, opts Options) (*Server, error) {
	sw, err := NewSwapper(m)
	if err != nil {
		return nil, err
	}
	b, err := NewBatcher(sw, opts)
	if err != nil {
		return nil, err
	}
	return NewServer(b), nil
}

// Batcher returns the underlying Batcher (for stats or direct calls).
func (s *Server) Batcher() *Batcher { return s.b }

// AttachLearner enables the online-learning endpoints (/learn, /retrain)
// and the learner gauges in /stats. Attach before serving traffic; the
// learner must publish into this server's Swapper.
func (s *Server) AttachLearner(l *Learner) { s.learner = l }

// Learner returns the attached learner, nil when online learning is off.
func (s *Server) Learner() *Learner { return s.learner }

// SetStrictHealth makes /healthz answer 503 while the server is degraded
// (see Learner.Health) instead of a 200 with status "degraded" — for load
// balancers and cluster coordinators that act on status codes alone. Set
// it before serving traffic.
func (s *Server) SetStrictHealth(on bool) { s.strictHealth = on }

// Handler returns the route table, mountable under any mux.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Close or a listener error. It blocks
// like http.Server.ListenAndServe and returns http.ErrServerClosed after a
// clean Close.
func (s *Server) ListenAndServe(addr string) error {
	s.hs.Addr = addr
	return s.hs.ListenAndServe()
}

// Close drains the server so no accepted request is dropped mid-batch: the
// Batcher closes first — intake stops (late submitters get 503) and every
// micro-batch already accepted into the queue is flushed and answered —
// and only then does http.Server.Shutdown run, which now completes quickly
// because no handler is still waiting on a batch. The previous ordering
// (HTTP first) could hit Shutdown's deadline while handlers were still
// blocked on forming batches and then yank the Batcher out from under
// them. In-flight handlers that had not yet submitted when intake stopped
// are answered with 503 rather than dropped.
func (s *Server) Close() error {
	s.b.Close()
	return edge.Shutdown(s.hs)
}

// ServePredict handles POST /predict: one row, coalesced into whatever
// micro-batch is forming (JSON or a 1-row binary frame).
func (s *Server) ServePredict(w http.ResponseWriter, r *http.Request) { s.edge.ServePredict(w, r) }

// ServePredictBatch handles POST /predict_batch: a caller's batch served
// directly, a binary one decoded straight into a replica's leased scratch.
func (s *Server) ServePredictBatch(w http.ResponseWriter, r *http.Request) {
	s.edge.ServePredictBatch(w, r)
}

// streamFrame is the edge's binary /predict_batch path: rows stream from
// the frame into a pooled replica's leased input scratch, chunk by chunk,
// with no intermediate [][]float64. A frame of the wrong width is refused
// before a replica is leased, and counted as an error like the same rows
// sent as JSON.
func (b *Batcher) streamFrame(d *wire.Decoder, rows, cols int, out []int) error {
	if rows > 0 && cols != b.features {
		b.stats.errors.Add(1)
		return fmt.Errorf("serve: input rows have %d features, model expects %d", cols, b.features)
	}
	return b.PredictStream(rows, out, d.Floats)
}

// ServeHealthz handles GET /healthz: liveness plus the served model's
// shape — and it tells the truth: when the attached learner is impaired
// (post-rejection backoff, or a retrain wedged past its stall deadline)
// the status is "degraded" with the reasons listed, so a cluster
// coordinator's probes can deprioritize this worker. Plain mode still
// answers 200 (the worker does serve predictions); SetStrictHealth turns
// degraded into a 503.
func (s *Server) ServeHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.b.Model()
	status, code := "ok", http.StatusOK
	var reasons []string
	if s.learner != nil {
		if h := s.learner.Health(); h.Degraded {
			status, reasons = "degraded", h.Reasons
			if s.strictHealth {
				code = http.StatusServiceUnavailable
			}
		}
	}
	edge.WriteJSON(w, code, map[string]any{
		"status":   status,
		"reasons":  reasons,
		"features": m.Features(),
		"dim":      m.Dim(),
		"classes":  m.Classes(),
		"swaps":    s.b.Swapper().Swaps(),
	})
}

// ServeModel handles GET /model: the serving model as a Model.Save
// snapshot — the same versioned binary format /swap accepts, so a cluster
// coordinator can pull shard models for the federated merge loop (and any
// exported snapshot can be re-imported bitwise). ?format negotiates the wire
// format: "1bit" exports the packed payload (sign-quantizing an f32
// champion on the fly, ungated — an export is not a publication),
// "f32" demands the float payload (409 when only packed bits exist:
// sign quantization is not invertible), and the default ships whatever
// is serving. The X-DistHD-Format header names the format actually sent.
// The snapshot is buffered first so the response carries a Content-Length
// and a serialization error can still become a clean status (409 for a
// model whose encoder family has no wire format).
func (s *Server) ServeModel(w http.ResponseWriter, r *http.Request) {
	m := s.b.Model()
	switch r.URL.Query().Get("format") {
	case "", "current":
	case "1bit":
		if !m.Quantized() {
			q, err := m.Quantize1Bit()
			if err != nil {
				edge.WriteError(w, http.StatusConflict, err)
				return
			}
			m = q
		}
	case "f32":
		if m.Quantized() {
			edge.WriteError(w, http.StatusConflict,
				errors.New("serve: serving model is 1-bit quantized; the f32 weights are gone (quantization is one-way)"))
			return
		}
	default:
		edge.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown model format %q (want 1bit or f32)", r.URL.Query().Get("format")))
		return
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		edge.WriteError(w, http.StatusConflict, err)
		return
	}
	format := "f32"
	if m.Quantized() {
		format = "1bit"
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("X-DistHD-Format", format)
	_, _ = w.Write(buf.Bytes())
}

// Stats assembles the full serving snapshot: batcher counters, learner
// gauges when online learning is attached, quantization gauges, and the
// per-wire-format request counters. GET /stats returns exactly this.
func (s *Server) Stats() Snapshot {
	snap := s.b.Stats()
	if s.learner != nil {
		ls := s.learner.Snapshot()
		snap.Learner = &ls
	}
	snap.Quantization = &QuantizationStats{
		Active:    s.b.Model().Quantized(),
		Publishes: s.quantPublishes.Load(),
		Rejects:   s.quantRejects.Load(),
		LastGate:  s.quantLastGate.Load(),
	}
	snap.WireJSONRequests = s.edge.JSON.Load()
	snap.WireBinaryRequests = s.edge.Binary.Load()
	return snap
}

// ServeStats handles GET /stats: the serving counters, with the learner
// gauges folded in when online learning is attached and the quantization
// gauges always.
func (s *Server) ServeStats(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, http.StatusOK, s.Stats())
}

// forced reports whether the request asks ?force=1 (or ?force=true).
func forced(r *http.Request) bool {
	f := r.URL.Query().Get("force")
	return f == "1" || f == "true"
}

// ServeQuantize handles POST /quantize: it sign-quantizes the serving f32
// champion to the packed 1-bit tier and publishes it through the Swapper.
// With a learner attached the quantized challenger must first clear the
// champion/challenger gate on the learner's holdout slice, tolerating
// margin (default disthd.DefaultQuantizeMargin) of regression; a losing
// verdict answers 409 with {"published":false} and the full gate
// evaluation, and the f32 champion keeps serving. ?force=1 publishes
// regardless of the verdict (still measured and reported). Quantizing an
// already-quantized champion answers 409.
func (s *Server) ServeQuantize(w http.ResponseWriter, r *http.Request) {
	force := forced(r)
	margin := disthd.DefaultQuantizeMargin
	if mq := r.URL.Query().Get("margin"); mq != "" {
		v, err := strconv.ParseFloat(mq, 64)
		if err != nil {
			edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad margin %q: %w", mq, err))
			return
		}
		margin = v
	}
	// One quantization at a time: the gate evaluation is seconds of work
	// and the read-judge-swap sequence must not interleave with itself.
	s.quantMu.Lock()
	defer s.quantMu.Unlock()
	cur := s.b.Model()
	if cur.Quantized() {
		edge.WriteError(w, http.StatusConflict, errors.New("serve: serving model is already 1-bit quantized"))
		return
	}
	// Without a learner there is no holdout: the empty one publishes, and
	// the response reports no gate.
	var holdX [][]float64
	var holdY []int
	if s.learner != nil {
		holdX, holdY = s.learner.holdout()
	}
	q, v, err := cur.Quantize1BitGated(holdX, holdY, margin)
	if err != nil {
		edge.WriteError(w, http.StatusConflict, err)
		return
	}
	var gate *GateResult
	if s.learner != nil {
		gate = gateResult(v)
		gate.Forced = force
		if !gate.Passed && !force {
			s.quantRejects.Add(1)
			s.quantLastGate.Store(gate)
			edge.WriteJSON(w, http.StatusConflict, map[string]any{"published": false, "gate": gate})
			return
		}
	}
	if err := s.b.Swap(q); err != nil {
		edge.WriteError(w, http.StatusConflict, err)
		return
	}
	s.quantPublishes.Add(1)
	if gate != nil {
		gate.Published = true
		s.quantLastGate.Store(gate)
	}
	edge.WriteJSON(w, http.StatusOK, map[string]any{
		"published": true,
		"swaps":     s.b.Swapper().Swaps(),
		"gate":      gate,
	})
}

// learnRequest is the /learn body: one labeled feedback sample.
type learnRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

// learnReqPool recycles /learn request structs; json.Unmarshal reuses the
// X backing array across requests.
var learnReqPool = sync.Pool{New: func() any { return new(learnRequest) }}

// ServeLearn handles POST /learn: labeled feedback into the attached
// learner (JSON or a binary learn frame). 404 without a learner, 400 for
// malformed feedback.
func (s *Server) ServeLearn(w http.ResponseWriter, r *http.Request) {
	if s.learner == nil {
		edge.WriteError(w, http.StatusNotFound, errNoLearner)
		return
	}
	if edge.IsWire(r) {
		s.edge.Binary.Add(1)
		s.learnFrame(w, r)
		return
	}
	s.edge.JSON.Add(1)
	req := learnReqPool.Get().(*learnRequest)
	defer learnReqPool.Put(req)
	req.X, req.Label = req.X[:0], 0
	if status, err := edge.ReadJSON(w, r, edge.MaxJSONBody, req); status != 0 {
		edge.WriteError(w, status, err)
		return
	}
	res, err := s.learner.Feed(req.X, req.Label)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, res)
}

// ServeRetrain handles POST /retrain: it starts a background retrain on
// the attached learner: 202 when one starts, 409 when one is already in
// flight, the window is still too small, or the serving champion is 1-bit
// quantized (frozen — swap the f32 model back in first). The challenger
// still answers to the champion/challenger gate; ?force=1 publishes it
// regardless of the verdict. The response returns immediately; poll
// /stats for the gate outcome and completion.
func (s *Server) ServeRetrain(w http.ResponseWriter, r *http.Request) {
	if s.learner == nil {
		edge.WriteError(w, http.StatusNotFound, errNoLearner)
		return
	}
	force := forced(r)
	started, err := s.learner.Retrain(force)
	if err != nil {
		edge.WriteError(w, http.StatusConflict, err)
		return
	}
	if !started {
		edge.WriteError(w, http.StatusConflict, errors.New("serve: a retrain is already in flight"))
		return
	}
	edge.WriteJSON(w, http.StatusAccepted, map[string]bool{"started": true, "forced": force})
}

// learnFrame ingests one labeled feedback sample from a learn frame,
// answering with a feed-ack frame.
func (s *Server) learnFrame(w http.ResponseWriter, r *http.Request) {
	f := edge.GetFrame(r.Body)
	defer f.Put()
	typ, err := f.D.Next()
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: read frame: %w", err))
		return
	}
	if typ != wire.TypeLearn {
		edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: want a learn frame, got %v", typ))
		return
	}
	label, cols, err := f.D.LearnHeader()
	var row []float64
	if err == nil {
		row, err = f.Floats(cols)
	}
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.learner.Feed(row, label)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	f.Buf = wire.AppendFeedAck(f.Buf[:0], wire.FeedAck{
		Correct:        res.Correct,
		Drift:          res.Drift,
		RetrainStarted: res.RetrainStarted,
		WindowAccuracy: res.WindowAccuracy,
	})
	edge.WriteFrame(w, f.Buf)
}

// errNoLearner answers the learning endpoints when no Learner is attached.
var errNoLearner = errors.New("serve: online learning is not enabled on this server")

// ServeSwap handles POST /swap: it hot-swaps the served model from a
// Model.Save payload: 409 for a shape mismatch (retrain with matching
// shape), 413 for a payload over the model body bound, 400 for a payload
// that does not decode at all.
func (s *Server) ServeSwap(w http.ResponseWriter, r *http.Request) {
	if err := s.b.Swapper().SwapReader(http.MaxBytesReader(w, r.Body, edge.MaxModelBody)); err != nil {
		status := edge.BodyStatus(err)
		if errors.Is(err, ErrShapeMismatch) {
			status = http.StatusConflict
		}
		edge.WriteError(w, status, err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]uint64{"swaps": s.b.Swapper().Swaps()})
}

// statusFor maps a prediction error to its HTTP status.
func statusFor(err error) int {
	if err == ErrClosed {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
