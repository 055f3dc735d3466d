// Package edge is the HTTP front-end the serving processes share: the
// negotiated prediction routes, JSON error bodies, bounded body reading
// and the hardened http.Server. serve.Server mounts an Edge over its
// Batcher and cluster.Server over its Coordinator, so a client cannot
// tell a worker from a coordinator by anything but the answers;
// serve/registry uses the helpers for its admin plane.
//
// A request with Content-Type application/x-disthd-frame carries a binary
// frame (see repro/serve/wire) and is answered in kind; anything else is
// JSON. Errors are JSON with a non-2xx status in both modes, so a binary
// client keys off the status code alone. The decoder's own payload bound
// (wire.DefaultMaxPayload, deliberately equal to MaxJSONBody) replaces
// the MaxBytesReader the JSON path wraps around the body.
package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve/wire"
)

// Hardening bounds: a slow or oversized client must never pin a handler.
// The timeouts go on the http.Server; the body limits wrap POST bodies in
// an http.MaxBytesReader (413 on overflow). Model snapshots are orders of
// magnitude larger than JSON requests, so they get their own bound.
const (
	ReadHeaderTimeout = 5 * time.Second
	ReadTimeout       = 60 * time.Second
	IdleTimeout       = 120 * time.Second
	MaxJSONBody       = 8 << 20
	MaxModelBody      = 256 << 20
)

// retryAfterSeconds is the Retry-After value on 429 responses. Admission
// rejections clear when an in-flight request drains or an idle tenant
// frees pool capacity; the wake itself is sub-millisecond, so the header
// is dominated by the 1-second floor — HTTP Retry-After has whole-second
// granularity, and anything under a second would invite the hammering the
// header exists to prevent.
const retryAfterSeconds = 1

// NewHTTPServer returns the hardened http.Server for h: headers must
// arrive promptly, a whole request must finish reading within
// ReadTimeout, and idle keep-alive connections are reaped. Servers build
// it at construction, not in ListenAndServe, so Close never races the
// assignment: Shutdown on a never-started server is a no-op and a later
// ListenAndServe returns http.ErrServerClosed.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Shutdown stops hs gracefully, waiting up to 10 seconds for in-flight
// requests to finish.
func Shutdown(hs *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

// WriteJSON emits v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError emits a {"error": ...} body. Admission rejections (429)
// additionally carry a Retry-After header so well-behaved clients back
// off instead of retrying immediately against a pool that is still
// saturated.
func WriteError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ReadJSON decodes a POST body bounded by limit, mapping an oversized
// body to 413 and malformed JSON (trailing bytes included) to 400; a zero
// status means success. The body is buffered through a pooled scratch
// buffer and unmarshaled in place, so decoding into a pooled request
// struct reuses its slice backing arrays (encoding/json appends into
// existing capacity) — the steady-state JSON request path allocates no
// per-request scratch.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	bp := jsonBufPool.Get().(*bytes.Buffer)
	defer jsonBufPool.Put(bp)
	bp.Reset()
	if _, err := bp.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode body: %w", err)
	}
	if err := json.Unmarshal(bp.Bytes(), v); err != nil {
		return http.StatusBadRequest, fmt.Errorf("decode body: %w", err)
	}
	return 0, nil
}

// BodyStatus is the status for a failed read of a MaxBytesReader-bounded
// body: 413 when it overflowed the bound, else 400.
func BodyStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// jsonBufPool recycles the body-read scratch behind ReadJSON.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// IsWire reports whether the request negotiates the binary frame protocol.
func IsWire(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
}

// WriteFrame answers with one binary frame.
func WriteFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	_, _ = w.Write(frame)
}

// Frame is the pooled scratch of one binary exchange: the decoder over
// the request body, row and class storage, and the response buffer, so
// the steady-state frame path allocates nothing of its own.
type Frame struct {
	// D decodes the request body.
	D *wire.Decoder
	// Buf is scratch for building the response frame.
	Buf []byte

	flat []float64
	rows [][]float64
	out  []int
}

var framePool = sync.Pool{New: func() any { return &Frame{D: wire.NewDecoder(nil)} }}

// GetFrame returns pooled frame scratch decoding body.
func GetFrame(body io.Reader) *Frame {
	f := framePool.Get().(*Frame)
	f.D.Reset(body)
	return f
}

// Put recycles the frame once nothing references its storage.
func (f *Frame) Put() { framePool.Put(f) }

// Floats reads n payload floats into the frame's row scratch.
func (f *Frame) Floats(n int) ([]float64, error) {
	if cap(f.flat) < n {
		f.flat = make([]float64, n)
	}
	return f.flat[:n], f.D.Floats(f.flat[:n])
}

// matrix reads a rows×cols payload as row views over one flat buffer.
func (f *Frame) matrix(rows, cols int) ([][]float64, error) {
	flat, err := f.Floats(rows * cols)
	if err != nil {
		return nil, err
	}
	if cap(f.rows) < rows {
		f.rows = make([][]float64, rows)
	}
	x := f.rows[:rows]
	for i := range x {
		x[i] = flat[i*cols : (i+1)*cols]
	}
	return x, nil
}

// reply answers with a classes frame built in the frame's buffer.
func (f *Frame) reply(w http.ResponseWriter, classes []int) {
	f.Buf = wire.AppendClasses(f.Buf[:0], classes)
	WriteFrame(w, f.Buf)
}

// Edge serves the negotiated prediction routes over one backend:
//
//	POST /predict        {"x":[...]}            -> {"class":3}
//	POST /predict_batch  {"x":[[...],[...]]}    -> {"classes":[3,1]}
//
// or the same as matrix frames in and classes frames out. Set the
// function fields before serving; the counters are live.
type Edge struct {
	// Name prefixes the edge's own error messages ("serve", "cluster").
	Name string
	// Predict classifies one row.
	Predict func(ctx context.Context, x []float64) (int, error)
	// PredictBatch classifies a batch: every JSON /predict_batch, and
	// binary ones when Stream is nil (decoded into one flat buffer).
	PredictBatch func(ctx context.Context, rows [][]float64) ([]int, error)
	// Stream, when set, serves binary /predict_batch instead: it reads
	// rows×cols features from d, whose matrix header is consumed, and
	// classifies them into out.
	Stream func(d *wire.Decoder, rows, cols int, out []int) error
	// StatusFor maps a backend error to its HTTP status.
	StatusFor func(error) int
	// OwnRows keeps the request scratch that rows are decoded into out of
	// the pools, so every row handed to Predict and PredictBatch owns its
	// memory. Set it when the backend may still read rows after
	// answering: a Coordinator whose transport is not a BatchPreparer,
	// where an abandoned hedge can outlive the request.
	OwnRows bool

	// JSON and Binary count requests per wire format for /stats.
	JSON, Binary atomic.Uint64
}

// predictRequest is the /predict body.
type predictRequest struct {
	X []float64 `json:"x"`
}

// predictBatchRequest is the /predict_batch body.
type predictBatchRequest struct {
	X [][]float64 `json:"x"`
}

// Request structs are pooled; json.Unmarshal reuses their row backing
// arrays, outer and inner, across requests.
var (
	predictReqPool      = sync.Pool{New: func() any { return new(predictRequest) }}
	predictBatchReqPool = sync.Pool{New: func() any { return new(predictBatchRequest) }}
)

// release returns request scratch to its pool, unless the backend may
// still read the rows decoded into it: then the scratch is dropped and
// stays the request's own.
func (e *Edge) release(p *sync.Pool, scratch any) {
	if !e.OwnRows {
		p.Put(scratch)
	}
}

// ServePredict handles POST /predict.
func (e *Edge) ServePredict(w http.ResponseWriter, r *http.Request) {
	if IsWire(r) {
		e.Binary.Add(1)
		e.predictFrame(w, r)
		return
	}
	e.JSON.Add(1)
	req := predictReqPool.Get().(*predictRequest)
	defer e.release(&predictReqPool, req)
	// Truncate so a body without "x" cannot inherit the previous
	// request's row; the backing array stays for reuse.
	req.X = req.X[:0]
	if status, err := ReadJSON(w, r, MaxJSONBody, req); status != 0 {
		WriteError(w, status, err)
		return
	}
	class, err := e.Predict(r.Context(), req.X)
	if err != nil {
		WriteError(w, e.StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]int{"class": class})
}

// ServePredictBatch handles POST /predict_batch.
func (e *Edge) ServePredictBatch(w http.ResponseWriter, r *http.Request) {
	if IsWire(r) {
		e.Binary.Add(1)
		e.predictBatchFrame(w, r)
		return
	}
	e.JSON.Add(1)
	req := predictBatchReqPool.Get().(*predictBatchRequest)
	defer e.release(&predictBatchReqPool, req)
	req.X = req.X[:0]
	if status, err := ReadJSON(w, r, MaxJSONBody, req); status != 0 {
		WriteError(w, status, err)
		return
	}
	classes, err := e.PredictBatch(r.Context(), req.X)
	if err != nil {
		WriteError(w, e.StatusFor(err), err)
		return
	}
	if classes == nil {
		classes = []int{}
	}
	WriteJSON(w, http.StatusOK, map[string][]int{"classes": classes})
}

// readMatrix reads and validates a matrix frame header, returning its
// dimensions.
func (e *Edge) readMatrix(d *wire.Decoder) (rows, cols int, err error) {
	typ, err := d.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: read frame: %w", e.Name, err)
	}
	if typ != wire.TypeMatrixF64 && typ != wire.TypeMatrixF32 {
		return 0, 0, fmt.Errorf("%s: want a matrix frame, got %v", e.Name, typ)
	}
	return d.MatrixDims()
}

// predictFrame serves one prediction from a 1-row matrix frame, answering
// with a 1-class classes frame.
func (e *Edge) predictFrame(w http.ResponseWriter, r *http.Request) {
	f := GetFrame(r.Body)
	defer e.release(&framePool, f)
	rows, cols, err := e.readMatrix(f.D)
	if err == nil && rows != 1 {
		err = fmt.Errorf("%s: /predict wants exactly one row, got %d", e.Name, rows)
	}
	var x []float64
	if err == nil {
		x, err = f.Floats(cols)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	class, err := e.Predict(r.Context(), x)
	if err != nil {
		WriteError(w, e.StatusFor(err), err)
		return
	}
	f.reply(w, []int{class})
}

// predictBatchFrame serves a matrix frame: through Stream when the
// backend decodes rows itself (the Batcher's decode-into-lease path),
// otherwise as row views over one flat buffer handed to PredictBatch.
func (e *Edge) predictBatchFrame(w http.ResponseWriter, r *http.Request) {
	f := GetFrame(r.Body)
	defer e.release(&framePool, f)
	rows, cols, err := e.readMatrix(f.D)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var classes []int
	if e.Stream != nil {
		if cap(f.out) < rows {
			f.out = make([]int, rows)
		}
		classes = f.out[:rows]
		err = e.Stream(f.D, rows, cols, classes)
	} else {
		var x [][]float64
		if x, err = f.matrix(rows, cols); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		classes, err = e.PredictBatch(r.Context(), x)
	}
	if err != nil {
		WriteError(w, e.StatusFor(err), err)
		return
	}
	f.reply(w, classes)
}
