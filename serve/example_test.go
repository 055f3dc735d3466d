package serve_test

import (
	"fmt"
	"log"

	disthd "repro"
	"repro/serve"
)

// ExampleBatcher trains a small model, serves it through the
// micro-batching Batcher, and hot-swaps a retrained model mid-flight.
func ExampleBatcher() {
	// Train two shape-compatible models (e.g. the live model and an
	// online-retrained successor).
	train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 3
	cfg.Seed = 7
	live, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = 8
	retrained, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Serve. Every concurrent Predict call rides a micro-batch: a worker
	// flushes whatever is queued, up to 64 rows, as soon as it is free.
	sw, err := serve.NewSwapper(live)
	if err != nil {
		log.Fatal(err)
	}
	b, err := serve.NewBatcher(sw, serve.Options{
		MaxBatch: 64,
		Replicas: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()

	class, err := b.Predict(train.X[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("class in range:", class >= 0 && class < train.Classes)

	// Hot-swap the model; in-flight batches finish on the old weights,
	// later batches use the new ones, and no request is dropped.
	if err := b.Swap(retrained); err != nil {
		log.Fatal(err)
	}
	if _, err := b.Predict(train.X[0]); err != nil {
		log.Fatal(err)
	}
	snap := b.Stats()
	fmt.Println("requests:", snap.Requests)
	fmt.Println("swaps:", snap.Swaps)
	// Output:
	// class in range: true
	// requests: 2
	// swaps: 1
}
