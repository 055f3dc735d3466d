package experiments

import (
	"fmt"
	"io"
	"math"
)

// Fig4StatsResult is the multi-seed statistical variant of the Fig. 4
// comparison: mean ± standard deviation of each learner's mean accuracy
// over several independent seeds (fresh data draws AND fresh model
// initializations). The paper reports single numbers; this quantifies how
// much of each gap is real versus seed noise — the question that dominated
// this reproduction.
type Fig4StatsResult struct {
	Seeds    []uint64
	Learners []string
	// PerSeed[s][l] is learner l's across-dataset mean accuracy at seed s.
	PerSeed [][]float64
	// Mean and Std aggregate PerSeed per learner.
	Mean, Std []float64
}

// RunFig4Stats repeats the comparison across `trials` seeds derived from
// o.Seed (3 at Quick, 5 otherwise).
func RunFig4Stats(o Options) (*Fig4StatsResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	trials := 5
	if o.Quick {
		trials = 3
	}
	res := &Fig4StatsResult{}
	for s := 0; s < trials; s++ {
		seed := o.Seed + uint64(s)*7919
		res.Seeds = append(res.Seeds, seed)
		run := o
		run.Seed = seed
		cmp, err := RunComparison(run)
		if err != nil {
			return nil, err
		}
		if res.Learners == nil {
			res.Learners = cmp.Learners
		}
		row := make([]float64, len(cmp.Learners))
		for i, l := range cmp.Learners {
			row[i] = cmp.MeanAccuracy(l)
		}
		res.PerSeed = append(res.PerSeed, row)
	}

	n := float64(len(res.PerSeed))
	res.Mean = make([]float64, len(res.Learners))
	res.Std = make([]float64, len(res.Learners))
	for l := range res.Learners {
		var sum float64
		for s := range res.PerSeed {
			sum += res.PerSeed[s][l]
		}
		mean := sum / n
		var ss float64
		for s := range res.PerSeed {
			d := res.PerSeed[s][l] - mean
			ss += d * d
		}
		res.Mean[l] = mean
		res.Std[l] = math.Sqrt(ss / n)
	}
	return res, nil
}

// Render prints mean ± std per learner plus the DistHD deltas.
func (r *Fig4StatsResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig. 4 statistical variant: mean accuracy over %d seeds (mean ± std)\n", len(r.Seeds)); err != nil {
		return err
	}
	t := newTable("Learner", "Mean", "Std")
	for l, name := range r.Learners {
		t.addf("%s\t%s\t±%.2f%%", name, pct(r.Mean[l]), 100*r.Std[l])
	}
	if err := t.render(w); err != nil {
		return err
	}
	// DistHD (index 5) deltas with a crude significance hint.
	dist := 5
	for _, vs := range []int{2, 3, 4} {
		delta := r.Mean[dist] - r.Mean[vs]
		noise := math.Sqrt(r.Std[dist]*r.Std[dist]+r.Std[vs]*r.Std[vs]) + 1e-12
		verdict := "within noise"
		if math.Abs(delta) > 2*noise {
			verdict = "clear"
		}
		if _, err := fmt.Fprintf(w, "DistHD - %-22s %+.2f%% (pooled std %.2f%%; %s)\n",
			r.Learners[vs]+":", 100*delta, 100*noise, verdict); err != nil {
			return err
		}
	}
	return nil
}
