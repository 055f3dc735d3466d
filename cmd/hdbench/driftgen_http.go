package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	disthd "repro"
	"repro/internal/dataset"
	"repro/serve"
)

// driftHTTP drives a live disthd-serve process over its HTTP surface — the
// transport behind `hdbench -driftgen -http addr`. The client only speaks
// the public wire formats (/healthz, /swap, /predict_batch, /learn,
// /stats) — JSON or, with -wire binary, the frame protocol on the predict
// and learn hops — so what it measures is the whole deployed stack: wire
// codec, micro-batch coalescing, the learner behind /learn, and the
// champion/challenger gate.
type driftHTTP struct {
	base string
	wire string
	hc   *http.Client
}

// newDriftHTTP targets a live server ("host:port" or a full URL).
func newDriftHTTP(target, wireFmt string) *driftHTTP {
	return &driftHTTP{
		base: baseURL(target),
		wire: wireFmt,
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// getJSON decodes GET path into out.
func (c *driftHTTP) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts v to path and decodes the answer into out when non-nil.
func (c *driftHTTP) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, msg)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// waitHealthy polls /healthz until the server answers (it may still be
// training its -demo model when the benchmark starts) and verifies the
// served shape matches the locally trained base model, so /swap can
// install identical weights on both sides of the comparison.
func (c *driftHTTP) waitHealthy(m *disthd.Model, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var health struct {
		Features int `json:"features"`
		Dim      int `json:"dim"`
		Classes  int `json:"classes"`
	}
	for {
		err := c.getJSON("/healthz", &health)
		if err == nil {
			if health.Features != m.Features() || health.Dim != m.Dim() || health.Classes != m.Classes() {
				return fmt.Errorf("live server serves %d features/D=%d/%d classes, benchmark model is %d/%d/%d — start disthd-serve with the matching -demo dataset and -dim",
					health.Features, health.Dim, health.Classes, m.Features(), m.Dim(), m.Classes())
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live server at %s never became healthy: %w", c.base, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// swap installs m as the live server's serving model via POST /swap.
func (c *driftHTTP) swap(m *disthd.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/swap", "application/octet-stream", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST /swap: %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// predictBatch classifies rows over the wire (in the format selected with
// -wire) and returns the round-trip latency alongside the classes.
func (c *driftHTTP) predictBatch(rows [][]float64) ([]int, time.Duration, error) {
	start := time.Now()
	classes, err := postBatch(c.hc, c.base, c.wire, rows)
	return classes, time.Since(start), err
}

// learn feeds one labeled sample through POST /learn in the selected wire
// format.
func (c *driftHTTP) learn(x []float64, label int) error {
	return postLearn(c.hc, c.base, c.wire, x, label)
}

// stats scrapes GET /stats.
func (c *driftHTTP) stats() (serve.Snapshot, error) {
	var snap serve.Snapshot
	err := c.getJSON("/stats", &snap)
	return snap, err
}

// waitIdle polls /stats until no retrain is in flight — the window-boundary
// barrier that keeps the live table stable run-to-run.
func (c *driftHTTP) waitIdle(timeout time.Duration) (serve.Snapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		snap, err := c.stats()
		if err != nil {
			return snap, err
		}
		if snap.Learner == nil {
			return snap, fmt.Errorf("live server has no learner attached — start disthd-serve with -learn")
		}
		if !snap.Learner.Retraining {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("retrain still in flight after %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// httpChunk is how many drifted samples ride one /predict_batch call — big
// enough to engage the batched kernels, small enough that per-window
// latency stays a dense signal.
const httpChunk = 16

// runDriftgenHTTP streams each drift kind through a LIVE disthd-serve
// process: the locally trained base model is installed via /swap (both
// sides of the frozen-vs-adaptive comparison then start from identical
// weights), drifted batches flow through /predict_batch (accuracy judged
// against the true labels, round-trip latency recorded), feedback — with
// any label flips — through /learn, and the learner/gate gauges are
// scraped from /stats at every window boundary. Counters printed per kind
// are deltas from that kind's start; the sliding feedback window itself
// carries across kinds on a long-lived server, as it would in production.
func runDriftgenHTTP(o driftgenOptions, base *disthd.Model, test *dataset.Dataset, w io.Writer) error {
	c := newDriftHTTP(o.httpTarget, o.wire)
	if err := c.waitHealthy(base, 30*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "live target: %s (wire=%s)\n", c.base, c.wire)
	for _, kind := range o.kinds {
		if err := driftgenKindHTTP(o, c, kind, base, test, w); err != nil {
			return err
		}
	}
	return nil
}

// driftgenKindHTTP runs one drift kind against the live server and prints
// the windowed table.
func driftgenKindHTTP(o driftgenOptions, c *driftHTTP, kind dataset.DriftKind, base *disthd.Model, test *dataset.Dataset, w io.Writer) error {
	if err := c.swap(base); err != nil {
		return err
	}
	start, err := c.stats()
	if err != nil {
		return err
	}
	if start.Learner == nil {
		return fmt.Errorf("live server has no learner attached — start disthd-serve with -learn")
	}
	retr0, acc0, rej0 := start.Learner.Retrains, start.Learner.GateAccepts, start.Learner.GateRejects

	stream, err := dataset.NewDriftStream(test, kind, o.fraction, o.severity, o.seed^0xd21f7)
	if err != nil {
		return err
	}
	samples := materialize(stream, base.Classes(), o.labelNoise, o.seed^0xf11b)
	bounds := windowBounds(len(samples), o.windows)

	fmt.Fprintf(w, "\ndrift kind: %s (live over HTTP, gate %v)\n", driftKindName(kind), start.Learner.GateEnabled)
	fmt.Fprintf(w, "%8s %10s %10s %10s %8s %8s %8s %10s\n",
		"window", "severity", "frozen", "live", "retr", "accept", "reject", "batch ms")
	var sumFrozen, sumLive float64
	var lastSnap serve.Snapshot
	for i, b := range bounds {
		var frozenOK, liveOK, n int
		var batchNS time.Duration
		var batches int
		for pos := b[0]; pos < b[1]; pos += httpChunk {
			end := pos + httpChunk
			if end > b[1] {
				end = b[1]
			}
			chunk := samples[pos:end]
			rows := make([][]float64, len(chunk))
			for j, s := range chunk {
				rows[j] = s.x
			}
			classes, lat, err := c.predictBatch(rows)
			if err != nil {
				return err
			}
			if len(classes) != len(chunk) {
				return fmt.Errorf("/predict_batch answered %d classes for %d rows", len(classes), len(chunk))
			}
			batchNS += lat
			batches++
			for j, s := range chunk {
				n++
				if classes[j] == s.label {
					liveOK++
				}
				if p, err := base.Predict(s.x); err == nil && p == s.label {
					frozenOK++
				}
				if err := c.learn(s.x, s.fed); err != nil {
					return err
				}
			}
		}
		snap, err := c.waitIdle(2 * time.Minute)
		if err != nil {
			return err
		}
		lastSnap = snap
		fa := float64(frozenOK) / float64(n)
		la := float64(liveOK) / float64(n)
		sumFrozen += fa
		sumLive += la
		fmt.Fprintf(w, "%8d %10.2f %10.3f %10.3f %8d %8d %8d %10.2f\n",
			i, samples[b[1]-1].severity, fa, la,
			snap.Learner.Retrains-retr0, snap.Learner.GateAccepts-acc0, snap.Learner.GateRejects-rej0,
			float64(batchNS.Microseconds())/float64(batches)/1e3)
	}
	nw := float64(len(bounds))
	fmt.Fprintf(w, "%8s %10s %10.3f %10.3f   retrains %d, gate accepts %d / rejects %d\n",
		"mean", "", sumFrozen/nw, sumLive/nw,
		lastSnap.Learner.Retrains-retr0, lastSnap.Learner.GateAccepts-acc0, lastSnap.Learner.GateRejects-rej0)
	if lr := lastSnap.Learner.LastRejection; lr != nil {
		fmt.Fprintf(w, "%8s last rejection: challenger %.3f vs champion %.3f (margin %+.3f, holdout %d)\n",
			"", lr.ChallengerAccuracy, lr.ChampionAccuracy, lr.Margin, lr.HoldoutSize)
	}
	return nil
}
