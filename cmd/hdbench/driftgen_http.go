package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	disthd "repro"
	"repro/internal/dataset"
	"repro/serve"
)

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
	c := newHTTPClient(o.httpTarget, o.wire, time.Minute)
	// The served shape must match the locally trained base model, so /swap
	// can install identical weights on both sides of the comparison.
	var health struct{ Features, Dim, Classes int }
	if err := c.waitReady(&health); err != nil {
		return err
	}
	if health.Features != base.Features() || health.Dim != base.Dim() || health.Classes != base.Classes() {
		return fmt.Errorf("live server serves %d features/D=%d/%d classes, benchmark model is %d/%d/%d — start disthd-serve with the matching -demo dataset and -dim",
			health.Features, health.Dim, health.Classes, base.Features(), base.Dim(), base.Classes())
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
func driftgenKindHTTP(o driftgenOptions, c *httpClient, kind dataset.DriftKind, base *disthd.Model, test *dataset.Dataset, w io.Writer) error {
	if err := c.swap(base); err != nil {
		return err
	}
	var start serve.Snapshot
	if err := c.stats(&start); err != nil {
		return err
	}
	if start.Learner == nil {
		return errNoLearner
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
			sent := time.Now()
			classes, err := c.predictBatch(rows)
			if err != nil {
				return err
			}
			batchNS += time.Since(sent)
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
		snap, err := waitIdle(c, 2*time.Minute)
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

// waitIdle polls /stats until no retrain is in flight — the window-boundary
// barrier that keeps the live table stable run-to-run.
func waitIdle(c *httpClient, timeout time.Duration) (serve.Snapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		var snap serve.Snapshot
		if err := c.stats(&snap); err != nil {
			return snap, err
		}
		if snap.Learner == nil {
			return snap, errNoLearner
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

// errNoLearner is the live driftgen's answer to a server without -learn.
var errNoLearner = errors.New("live server has no learner attached — start disthd-serve with -learn")
