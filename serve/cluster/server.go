package cluster

import (
	"errors"
	"net/http"

	"repro/serve/internal/edge"
)

// Server exposes a Coordinator over the same HTTP/JSON wire format as a
// single serve.Server, so clients, load balancers, and hdbench cannot
// tell a coordinator from a worker:
//
//	POST /predict        {"x":[...]}            -> {"class":3}
//	POST /predict_batch  {"x":[[...],[...]]}    -> {"classes":[3,1]}
//	GET  /healthz                               -> cluster + per-worker health
//	GET  /stats                                 -> cluster.Snapshot JSON
//	POST /merge                                 -> MergeReport JSON (one merge round now)
//
// /predict and /predict_batch are the prediction edge a worker mounts,
// here over the Coordinator: JSON or binary frames (see repro/serve/wire)
// answered in kind, errors as JSON, per-format counters in /stats.
//
// /healthz reports "ok" while the available workers meet the quorum and
// "degraded" while serving from the fallback model; SetStrictHealth makes
// degraded answer 503 so upstream load balancers can act on it. The
// server is hardened from birth: header/read/idle timeouts and bounded
// request bodies (413 on overflow).
type Server struct {
	c            *Coordinator
	mux          *http.ServeMux
	hs           *http.Server
	strictHealth bool
	edge         edge.Edge
}

// NewServer wraps c. The caller keeps ownership of the Coordinator's
// lifecycle only if it never calls Server.Close (which closes both).
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, mux: http.NewServeMux(), edge: edge.Edge{
		Name:         "cluster",
		Predict:      c.Predict,
		PredictBatch: c.PredictBatch,
		StatusFor:    statusFor,
	}}
	s.mux.HandleFunc("POST /predict", s.edge.ServePredict)
	s.mux.HandleFunc("POST /predict_batch", s.edge.ServePredictBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		edge.WriteJSON(w, http.StatusOK, s.Stats())
	})
	s.mux.HandleFunc("POST /merge", s.handleMerge)
	s.hs = edge.NewHTTPServer(s.mux)
	return s
}

// Coordinator returns the wrapped coordinator (for stats or direct
// calls).
func (s *Server) Coordinator() *Coordinator { return s.c }

// SetStrictHealth makes /healthz answer 503 while the cluster is
// degraded (below quorum, serving from the fallback). Set it before
// serving traffic.
func (s *Server) SetStrictHealth(on bool) { s.strictHealth = on }

// Handler returns the route table, mountable under any mux.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Close or a listener error,
// blocking like http.Server.ListenAndServe.
func (s *Server) ListenAndServe(addr string) error {
	s.hs.Addr = addr
	return s.hs.ListenAndServe()
}

// Close shuts the HTTP listener down, waits for in-flight requests, and
// then closes the Coordinator (stopping its probe and merge loops).
func (s *Server) Close() error {
	err := edge.Shutdown(s.hs)
	s.c.Close()
	return err
}

// statusFor maps a coordinator error to its HTTP status: client-caused
// failures are 4xx, a closed coordinator or an unanswerable batch is 503.
func statusFor(err error) int {
	var pe *PermanentError
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// handleHealthz reports cluster liveness: "ok" at or above quorum,
// "degraded" below it (503 in strict mode), with per-worker breaker
// states so an operator sees which shard is out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.c.Stats()
	status, code := "ok", http.StatusOK
	if !snap.QuorumOK {
		status = "degraded"
		if s.strictHealth {
			code = http.StatusServiceUnavailable
		}
	}
	workers := make([]map[string]any, 0, len(snap.Workers))
	for _, ws := range snap.Workers {
		workers = append(workers, map[string]any{
			"addr": ws.Addr, "breaker": ws.Breaker,
			"available": ws.Available, "degraded": ws.Degraded,
		})
	}
	edge.WriteJSON(w, code, map[string]any{
		"status":    status,
		"available": snap.Available,
		"quorum":    snap.Quorum,
		"fallback":  snap.HasFallback,
		"workers":   workers,
	})
}

// Stats assembles the full cluster snapshot: the coordinator counters
// plus this server's per-wire-format request counters. GET /stats
// returns exactly this.
func (s *Server) Stats() Snapshot {
	snap := s.c.Stats()
	snap.WireJSONRequests = s.edge.JSON.Load()
	snap.WireBinaryRequests = s.edge.Binary.Load()
	return snap
}

// handleMerge triggers one federated merge round and reports it — the
// operator's lever for refreshing the fallback without waiting for the
// merge interval.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	rep, err := s.c.MergeNow(r.Context())
	if err != nil {
		edge.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, rep)
}
