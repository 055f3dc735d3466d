// Serving: put a trained DistHD model behind the micro-batching HTTP
// inference server, fire concurrent traffic at it, hot-swap a retrained
// model mid-flight, and read the latency/occupancy counters — the full
// online-serving lifecycle from the serve package.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	disthd "repro"
	"repro/serve"
	"repro/serve/wire"
)

func main() {
	// 1. Train the live model and a "retrained" successor (same shape,
	//    different seed — stand-in for an online retraining pipeline).
	train, test, err := disthd.SyntheticBenchmark("UCIHAR", 0.10, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 512
	cfg.Iterations = 10
	cfg.Seed = 42
	fmt.Println("training live model...")
	live, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = 43
	fmt.Println("training replacement model...")
	next, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Serve over HTTP on an ephemeral local port. Concurrent /predict
	//    calls coalesce into micro-batches (≤64 rows, ≤2ms linger) and run
	//    through the zero-allocation batched-GEMM kernels.
	srv, err := serve.New(live, serve.Options{
		MaxBatch: 64,
		MinFill:  8,
		Replicas: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	fmt.Println("serving on", base)

	// 3. Closed-loop traffic: 16 clients, each predicting in a loop.
	var (
		wg             sync.WaitGroup
		correct, total int
		mu             sync.Mutex
	)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < test.Len(); i += 16 {
				class, err := postPredict(base, test.X[i])
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				total++
				if class == test.Y[i] {
					correct++
				}
				mu.Unlock()
			}
		}(c)
	}

	// 4. Hot-swap the model while those clients are in flight, through the
	//    same HTTP surface an operator would use: POST the Model.Save
	//    bytes to /swap.
	var snapshot bytes.Buffer
	if err := next.Save(&snapshot); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/swap", "application/octet-stream", &snapshot)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("hot-swap status:", resp.Status)

	wg.Wait()
	fmt.Printf("served %d predictions, accuracy %.1f%% (mixed across the swap)\n",
		total, 100*float64(correct)/float64(total))

	// 5. The same endpoints also speak the compact binary frame protocol
	//    (repro/serve/wire): send a matrix frame with Content-Type
	//    application/x-disthd-frame and the classes come back as a frame
	//    too — ~3-7x the JSON throughput at high dimensionality. Benchmark
	//    it on a live server with `hdbench -loadgen -http <addr> -wire
	//    binary` (vs `-wire json`).
	classes, err := postPredictBatchBinary(base, test.X[:8])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary /predict_batch answered %d classes: %v\n", len(classes), classes)

	// 6. Read the serving counters — including requests per wire format.
	stats, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(stats.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	stats.Body.Close()
	fmt.Printf("stats: %d requests in %d batches (mean %.1f rows/batch), p50 %.2fms, p99 %.2fms, %d swap(s), wire json/binary %d/%d\n",
		snap.Requests, snap.Batches, snap.MeanBatchRows,
		snap.LatencyMsP50, snap.LatencyMsP99, snap.Swaps,
		snap.WireJSONRequests, snap.WireBinaryRequests)

	// 7. Drain: stop the listener, then the batcher (answers everything
	//    already accepted).
	hs.Close()
	srv.Close()
	fmt.Println("drained cleanly")
}

// postPredictBatchBinary sends rows to /predict_batch as a binary matrix
// frame and decodes the classes frame that mirrors it back.
func postPredictBatchBinary(base string, rows [][]float64) ([]int, error) {
	frame, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/predict_batch", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("predict_batch: %s", resp.Status)
	}
	return wire.ReadClasses(resp.Body)
}

// postPredict sends one feature vector to /predict.
func postPredict(base string, x []float64) (int, error) {
	body, err := json.Marshal(map[string][]float64{"x": x})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("predict: %s", resp.Status)
	}
	var out struct {
		Class int `json:"class"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Class, nil
}
