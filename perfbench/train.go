package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	disthd "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/mat"
)

// Training is measured by the traced run only: a child process loads an
// ISOLET-shaped split (617 features, 26 classes, 2600 training rows) that
// the benchmark wrote as CSV, trains it with disthd.TrainWithConfig at
// D=512 with the default 20 iterations and R=10 %, and then drives the
// same training through core.Pipeline stage by stage. It is not a timed
// workload: training's fork-join kernels hand work between the two virtual
// CPUs thousands of times a second, each hand-off waits on a busy host for
// the hypervisor to wake the other CPU, and a timed train workload spread
// 10-15 % between runs of the same code.
const (
	trainScale = 1.0
	trainDim   = 512
)

// trainOut is what the train child reports on its standard output.
type trainOut struct {
	Trace *trainTrace `json:"trace"`
}

// genTrain writes the seed's split as CSV files for the child to load.
func genTrain(dir string, seed uint64) error {
	tr, te, err := disthd.SyntheticBenchmark("ISOLET", trainScale, seed)
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "train.csv"), tr); err != nil {
		return err
	}
	return writeCSV(filepath.Join(dir, "test.csv"), te)
}

// writeCSV writes features with six significant digits and the label last;
// the program trains on exactly the values it reads back.
func writeCSV(path string, d disthd.DataSplit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for i, row := range d.X {
		line = line[:0]
		for _, v := range row {
			line = strconv.AppendFloat(line, v, 'g', 6, 64)
			line = append(line, ',')
		}
		line = strconv.AppendInt(line, int64(d.Y[i]), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTrainChild runs this binary as the train child, the process whose CPU
// time the traced training's cores_busy is taken from.
func runTrainChild(cfg config) (*trainOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	c, err := startChild(self, []string{"-role", "train", "-work", cfg.dir}, &out)
	if err != nil {
		return nil, err
	}
	<-c.done
	if !c.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("train child failed: %s\n%s", c.cmd.ProcessState, c.log.String())
	}
	var res trainOut
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("train child output: %w", err)
	}
	return &res, nil
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type split struct{ train, test disthd.DataSplit }

// trainChild is the train child: it loads the split, trains it with
// TrainWithConfig — the reference every staged training must match — and
// traces the staged trainings.
func trainChild(dir string) error {
	var s split
	var err error
	if s.train, err = disthd.LoadCSVFile(filepath.Join(dir, "train.csv"), -1); err != nil {
		return err
	}
	if s.test, err = disthd.LoadCSVFile(filepath.Join(dir, "test.csv"), -1); err != nil {
		return err
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = trainDim
	ref, err := disthd.TrainWithConfig(s.train.X, s.train.Y, s.train.Classes, cfg)
	if err != nil {
		return err
	}
	tt, err := traceTraining(s, ref)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(trainOut{Trace: tt})
}

// trainTrace is the traced training's per-stage breakdown.
type trainTrace struct {
	Spans       []span             `json:"spans"`
	UntracedMs  []float64          `json:"untraced_ms"`
	TracedMs    []float64          `json:"traced_ms"`
	StageMs     map[string]float64 `json:"stage_ms"` // self time per training, median over traced trainings
	CoresBusy   float64            `json:"cores_busy"`
	EncodeFlops float64            `json:"encode_flops"` // 2·N·q·D of the Encode stage
	Regen       int                `json:"regen"`
	Matches     bool               `json:"matches"`
}

// stagedTrainings is how many trainings each side of the traced run makes.
const stagedTrainings = 2

// traceTraining drives core.Pipeline stage by stage — the loop core.Train
// runs — with a span around each stage call, and checks the result is the
// same model TrainWithConfig trained (ref). It also times the same loop
// untraced, so the tracing overhead is measured on identical code.
func traceTraining(s split, ref *disthd.Model) (*trainTrace, error) {
	want, err := ref.PredictBatch(s.test.X)
	if err != nil {
		return nil, err
	}
	cc := core.DefaultConfig()
	dc := disthd.DefaultConfig()
	cc.Dim, cc.Seed = trainDim, dc.Seed
	tt := &trainTrace{Matches: true, StageMs: map[string]float64{}}
	staged := func(rec *recorder, req int) (*core.Classifier, *core.TrainStats, error) {
		root := -1
		if rec != nil {
			root = rec.begin("train", -1, req)
			defer rec.end(root)
		}
		stage := func(name string, f func()) {
			if rec == nil {
				f()
				return
			}
			rec.timed(name, root, req, f)
		}
		X := mat.FromRows(s.train.X)
		enc := encoding.NewRBF(X.Cols, trainDim, dc.Seed^0xd15c0)
		p, err := core.NewPipeline(enc, X, s.train.Y, s.train.Classes, cc)
		if err != nil {
			return nil, nil, err
		}
		stage("core.encode", p.Encode)
		for !p.Done() {
			stage("core.adapt", func() { p.Adapt() })
			if p.Done() {
				break
			}
			if p.WillRegenerate() {
				var ds core.DimStats
				stage("core.score", func() { ds = p.Score() })
				stage("core.regenerate", func() { p.Regenerate(ds) })
			} else {
				p.SkipScore()
			}
		}
		clf, st := p.Finish()
		return clf, st, nil
	}
	check := func(clf *core.Classifier, st *core.TrainStats) {
		got := clf.PredictBatch(mat.FromRows(s.test.X))
		for i := range got {
			if got[i] != want[i] {
				tt.Matches = false
			}
		}
		if st.TotalRegenerated != ref.Info.RegeneratedDims {
			tt.Matches = false
		}
		tt.Regen = st.TotalRegenerated
	}
	for i := 0; i < stagedTrainings; i++ {
		t0 := time.Now()
		clf, st, err := staged(nil, i)
		if err != nil {
			return nil, err
		}
		tt.UntracedMs = append(tt.UntracedMs, float64(time.Since(t0))/1e6)
		check(clf, st)
	}
	rec := newRecorder()
	var cpu, wall time.Duration
	for i := 0; i < stagedTrainings; i++ {
		c0, t0 := cpuTime(), time.Now()
		clf, st, err := staged(rec, i)
		if err != nil {
			return nil, err
		}
		wall += time.Since(t0)
		cpu += cpuTime() - c0
		check(clf, st)
	}
	tt.Spans = rec.snapshot()
	tt.CoresBusy = cpu.Seconds() / wall.Seconds()
	tt.EncodeFlops = 2 * float64(len(s.train.X)) * float64(len(s.train.X[0])) * trainDim
	// Per-training self time of each stage (summed over its calls), then
	// the median over the traced trainings.
	self := selfTimes(tt.Spans)
	perReq := map[string][]float64{}
	for i, sp := range tt.Spans {
		name := sp.Name
		if name == "train" {
			tt.TracedMs = append(tt.TracedMs, float64(sp.End-sp.Start)/1e6)
			name = "core.other"
		}
		for len(perReq[name]) <= sp.Req {
			perReq[name] = append(perReq[name], 0)
		}
		perReq[name][sp.Req] += float64(self[i]) / 1e6
	}
	for name, v := range perReq {
		tt.StageMs[name] = median(v)
	}
	return tt, nil
}
