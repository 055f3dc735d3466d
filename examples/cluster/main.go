// Cluster: fault-tolerant sharded serving. Three worker shards train
// privately over a shared frozen encoder and serve over real HTTP; a
// cluster.Coordinator fans batches out to them behind per-worker circuit
// breakers with retries and health probes. One worker is killed mid-run
// and not a single request fails — the survivors and the coordinator's
// local fallback model absorb it. Finally a federated merge round pulls
// the shard models over GET /model, averages them, and gates the merged
// candidate against the incumbent fallback before publishing.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/cluster"
)

func main() {
	// 1. Three shards train on disjoint thirds of the data over one shared
	//    frozen encoder (same Seed, RegenRate 0) — the precondition both
	//    chunk fan-out and federated averaging rely on.
	train, test, err := disthd.SyntheticBenchmark("UCIHAR", 0.25, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 512
	cfg.Iterations = 10
	cfg.Seed = 42
	cfg.RegenRate = 0
	n := len(train.X)
	shards := make([]*disthd.Model, 3)
	for i := range shards {
		lo, hi := i*n/3, (i+1)*n/3
		fmt.Printf("training shard %d on rows [%d,%d)...\n", i, lo, hi)
		shards[i], err = disthd.TrainWithConfig(train.X[lo:hi], train.Y[lo:hi], train.Classes, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	// 2. Each shard serves behind the stock micro-batching server on its
	//    own local port — three independent processes in real life.
	var (
		addrs   []string
		servers []*http.Server
	)
	for i, m := range shards {
		srv, err := serve.New(m, serve.Options{MaxBatch: 64, Replicas: 1})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		addrs = append(addrs, "http://"+ln.Addr().String())
		servers = append(servers, hs)
		fmt.Printf("worker %d serving on %s\n", i, addrs[i])
	}

	// 3. The coordinator fans out across the shards: health-gated workers,
	//    250ms call deadline, up to 3 tries with jittered backoff, a
	//    breaker that opens after 3 straight failures, active probes, and
	//    shard 0's model held locally as the below-quorum fallback. The
	//    holdout makes the merge gate in step 6 a real judge.
	c, err := cluster.New(cluster.Config{
		Workers:     addrs,
		CallTimeout: 250 * time.Millisecond,
		Retry: cluster.RetryConfig{
			MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		Breaker:       cluster.BreakerConfig{FailureThreshold: 3, OpenFor: time.Second},
		ProbeInterval: 100 * time.Millisecond,
		Fallback:      shards[0],
		Merge: cluster.MergeConfig{
			HoldX: test.X[:100],
			HoldY: test.Y[:100],
		},
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 4. Predict through the coordinator with all workers healthy.
	ctx := context.Background()
	predict := func(label string) {
		correct, total := 0, 0
		for i := 0; i+32 <= len(test.X) && total < 512; i += 32 {
			classes, err := c.PredictBatch(ctx, test.X[i:i+32])
			if err != nil {
				log.Fatalf("%s: %v", label, err)
			}
			for j, cl := range classes {
				total++
				if cl == test.Y[i+j] {
					correct++
				}
			}
		}
		fmt.Printf("%s: %d rows predicted, accuracy %.1f%%\n",
			label, total, 100*float64(correct)/float64(total))
	}
	predict("all workers up")

	// 5. Kill worker 0 the hard way and keep predicting: retries rotate
	//    chunks to the survivors, the breaker opens, and the client never
	//    sees an error.
	fmt.Println("killing worker 0...")
	servers[0].Close()
	predict("one worker dead")
	snap := c.Stats()
	fmt.Printf("coordinator: available=%d/%d dropped=%d retries=%d fallback_rows=%d\n",
		snap.Available, len(snap.Workers), snap.Dropped, snap.Retries, snap.FallbackRows)
	for i, w := range snap.Workers {
		fmt.Printf("  worker %d: breaker=%s requests=%d failures=%d\n",
			i, w.Breaker, w.Requests, w.Failures)
	}

	// 6. One federated merge round: pull every reachable shard's model,
	//    average under the disthd.AverageModels contract, and let the
	//    champion/challenger gate decide whether the merged candidate
	//    replaces the incumbent fallback.
	report, err := c.MergeNow(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge: %d shard(s) merged, published=%v", len(report.Workers), report.Published)
	if report.Verdict != nil {
		fmt.Printf(" (challenger %.3f vs incumbent %.3f on the holdout)",
			report.Verdict.ChallengerAccuracy, report.Verdict.ChampionAccuracy)
	}
	fmt.Println()

	predict("after merge")
}
