package disthd_test

// One testing.B benchmark per table and figure of the DistHD paper's
// evaluation. Each benchmark runs the corresponding experiment of
// internal/experiments at CI scale (Options.Quick), so `go test -bench=.`
// regenerates every artifact end to end and reports its cost. Full-scale
// tables come from:
//
//	go run ./cmd/hdbench -exp all -scale 0.35
//
// plus additional micro-benchmarks for the primitives that dominate the
// paper's efficiency claims (encoding, similarity search, training step).

import (
	"io"
	"testing"

	disthd "repro"
	"repro/internal/experiments"
)

// run executes one experiment per benchmark iteration, discarding output.
func run(b *testing.B, id string) {
	b.Helper()
	o := experiments.QuickOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Datasets regenerates Table I (dataset inventory).
func BenchmarkTable1Datasets(b *testing.B) { run(b, "table1") }

// BenchmarkFig2aStaticDimSweep regenerates Fig. 2(a): static-encoder HDC
// accuracy vs dimensionality and iterations, with the DNN reference.
func BenchmarkFig2aStaticDimSweep(b *testing.B) { run(b, "fig2a") }

// BenchmarkFig2bTopK regenerates Fig. 2(b): top-1/2/3 accuracy of a static
// HDC model across training iterations.
func BenchmarkFig2bTopK(b *testing.B) { run(b, "fig2b") }

// BenchmarkFig4Accuracy regenerates Fig. 4: the six-learner accuracy
// comparison across the five benchmark datasets.
func BenchmarkFig4Accuracy(b *testing.B) { run(b, "fig4") }

// BenchmarkFig5Efficiency regenerates Fig. 5: training time and inference
// latency for the iso-accuracy configurations.
func BenchmarkFig5Efficiency(b *testing.B) { run(b, "fig5") }

// BenchmarkFig6ROC regenerates Fig. 6: ROC curves under the two α/β
// weight-parameter settings.
func BenchmarkFig6ROC(b *testing.B) { run(b, "fig6") }

// BenchmarkFig7Convergence regenerates Fig. 7: accuracy vs iterations and
// vs dimensionality for DistHD / NeuralHD / baselineHD.
func BenchmarkFig7Convergence(b *testing.B) { run(b, "fig7") }

// BenchmarkFig8Robustness regenerates the Fig. 8 table: quality loss under
// memory bit flips for the 8-bit DNN and DistHD across dims × precisions.
func BenchmarkFig8Robustness(b *testing.B) { run(b, "fig8") }

// BenchmarkAblationAlgorithm2 regenerates the prose-vs-literal Algorithm 2
// comparison (the discrepancy documented in DESIGN.md).
func BenchmarkAblationAlgorithm2(b *testing.B) { run(b, "ablA2") }

// BenchmarkAblationRegenRate regenerates the regeneration-rate sweep.
func BenchmarkAblationRegenRate(b *testing.B) { run(b, "ablReg") }

// BenchmarkAblationEncoder regenerates the RBF-vs-linear encoder ablation.
func BenchmarkAblationEncoder(b *testing.B) { run(b, "ablEnc") }

// --- primitive micro-benchmarks -----------------------------------------

// benchData caches a small task for the micro-benchmarks.
func benchData(b *testing.B) (train, test disthd.DataSplit) {
	b.Helper()
	train, test, err := disthd.SyntheticBenchmark("UCIHAR", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	return train, test
}

// BenchmarkTrainDistHD measures end-to-end DistHD training at D=256.
func BenchmarkTrainDistHD(b *testing.B) {
	train, _ := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceSingle measures per-sample inference latency at D=256
// (encode + similarity search), the quantity behind Fig. 5's latency rows.
func BenchmarkInferenceSingle(b *testing.B) {
	train, test := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 8
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(test.X[i%len(test.X)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaPredictBatch measures the serving replica's batch path:
// rows through the leased-scratch EncodeBatchInto → PredictBatchInto
// pipeline. ReportAllocs pins the zero-allocation steady state the serve
// package depends on.
func BenchmarkReplicaPredictBatch(b *testing.B) {
	train, test := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 8
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := m.NewReplica(64)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = test.X[i%len(test.X)]
	}
	out := make([]int, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.PredictBatch(m, rows, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "samples/op")
}

// BenchmarkInferenceBatch measures batched inference throughput.
func BenchmarkInferenceBatch(b *testing.B) {
	train, test := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 8
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatch(test.X); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(test.X)), "samples/op")
}

// BenchmarkDeployInject measures the fault-injection path of Fig. 8.
func BenchmarkDeployInject(b *testing.B) {
	train, test := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 8
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := m.Deploy(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dep.Restore(); err != nil {
			b.Fatal(err)
		}
		if err := dep.Inject(0.05, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := dep.Evaluate(test.X, test.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveLoad measures model serialization round trips.
func BenchmarkSaveLoad(b *testing.B) {
	train, _ := benchData(b)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 5
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// discardCounter is an io.Writer that counts bytes, avoiding buffer growth
// noise in BenchmarkSaveLoad.
type discardCounter int64

func (d *discardCounter) Write(p []byte) (int, error) {
	*d += discardCounter(len(p))
	return len(p), nil
}

// BenchmarkEdgeCost regenerates the analytical edge-cost extension table.
func BenchmarkEdgeCost(b *testing.B) { run(b, "edgecost") }

// BenchmarkGridSearch regenerates the comparator-tuning protocol table.
func BenchmarkGridSearch(b *testing.B) { run(b, "gridsearch") }

// BenchmarkHeadline regenerates the abstract-claims summary.
func BenchmarkHeadline(b *testing.B) { run(b, "headline") }

// BenchmarkInputNoise regenerates the input-noise robustness extension.
func BenchmarkInputNoise(b *testing.B) { run(b, "inputnoise") }

// BenchmarkFig4Stats regenerates the multi-seed Fig. 4 variant.
func BenchmarkFig4Stats(b *testing.B) { run(b, "fig4stats") }

// BenchmarkHDTrainers regenerates the trainer-rule comparison extension.
func BenchmarkHDTrainers(b *testing.B) { run(b, "hdtrainers") }
