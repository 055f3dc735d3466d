package core

import (
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/model"
)

// Outcome buckets a sample by its top-2 classification result (§III-C).
type Outcome int

const (
	// Correct: the true label is the most similar class.
	Correct Outcome = iota
	// Partial: the true label is the second most similar class.
	Partial
	// Incorrect: the true label is neither of the top two.
	Incorrect
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Correct:
		return "correct"
	case Partial:
		return "partial"
	case Incorrect:
		return "incorrect"
	default:
		return "unknown"
	}
}

// Top2Outcome classifies a single (scores, label) pair into a bucket, also
// returning the top-2 class indices.
func Top2Outcome(scores []float64, label int) (Outcome, int, int) {
	i1, i2 := mat.ArgTop2(scores)
	switch label {
	case i1:
		return Correct, i1, i2
	case i2:
		return Partial, i1, i2
	default:
		return Incorrect, i1, i2
	}
}

// DimStats is the per-iteration output of Algorithm 2: the undesired
// dimension set plus the bucket census, which the trainer reports.
type DimStats struct {
	Undesired                            []int
	NumCorrect, NumPartial, NumIncorrect int
}

// IdentifyUndesired implements Algorithm 2. H is the encoded training batch
// (N×D), y the labels, m the partially trained model. It returns up to
// R%·D dimensions to drop, selected in two stages (see DESIGN.md §1 for
// the empirical justification of each choice):
//
//  1. Indicted dimensions — the intersection of the top-R%·D columns of
//     the two row-normalized distance matrices M (partial bucket) and N
//     (incorrect bucket), Algorithm 2 line 15. These "mislead the
//     classification". With only one non-empty bucket its top set is used
//     alone; an indicted dimension whose saliency is above the median is
//     vetoed (the paper's guard against over-eliminating).
//  2. Budget fill — remaining slots go to the lowest-saliency dimensions
//     ("reduce the learning quality"), matching the paper's effective-
//     dimensionality accounting D* = D + D·R%·iterations.
//
// Distances are taken in the sign (bipolar) view of sample and class
// hypervectors, so each matrix entry is a pure directional-disagreement
// indicator rather than a magnitude.
func IdentifyUndesired(H *mat.Dense, y []int, m *model.Model, cfg *Config) DimStats {
	d := H.Cols
	k := m.Classes()

	// Distances are taken in the bipolar (sign) view of both the sample
	// and the class hypervectors, so |H − C| at a dimension is a pure
	// directional-disagreement indicator (0 or 2). Using raw magnitudes
	// instead would bias the ranking toward dimensions with large learned
	// weights — exactly the class-signature dimensions that must NOT be
	// dropped. The sign view matches the bipolar deployment HDC hardware
	// uses and keeps Algorithm 2's formulas intact.
	normClasses := m.Weights.Clone()

	var stats DimStats
	var mRows, nRows [][]float64

	for c := 0; c < k; c++ {
		signVec(normClasses.Row(c))
	}

	// Batched similarity: blocked GEMMs over row tiles (pooled buffer)
	// instead of N independent score loops. Tiling bounds peak scratch at
	// scoreTile×k however large the training set grows; the tile height is
	// a multiple of the kernel row block, so results are bitwise identical
	// to scoring the whole batch at once.
	tileRows := H.Rows
	if tileRows > scoreTile {
		tileRows = scoreTile
	}
	scoreS := mat.GetScratch(tileRows * k)
	defer scoreS.Release()

	hn := make([]float64, d)
	distTrue := make([]float64, d)
	distTop1 := make([]float64, d)
	distTop2 := make([]float64, d)

	for t0 := 0; t0 < H.Rows; t0 += scoreTile {
		t1 := t0 + scoreTile
		if t1 > H.Rows {
			t1 = H.Rows
		}
		Ht := mat.View(t1-t0, d, H.Data[t0*d:t1*d])
		scores := mat.View(t1-t0, k, scoreS.Buf[:(t1-t0)*k])
		m.ScoreBatchInto(Ht, scores)
		identifyTile(H, y, t0, t1, scores, cfg, &stats, &mRows, &nRows,
			normClasses, hn, distTrue, distTop1, distTop2)
	}

	budget := regenBudget(d, cfg.RegenRate)
	if budget == 0 {
		return stats
	}

	colM := columnScores(mRows)
	colN := columnScores(nRows)
	stats.Undesired = selectUndesired(colM, colN, saliencyFill(m), budget)
	return stats
}

// scoreTile is the row-tile height for Algorithm 2's batched scoring: large
// enough to amortize the GEMM, small enough to bound scratch memory, and a
// multiple of the kernel row block so tiling never changes results.
const scoreTile = 4096

// identifyTile buckets rows [t0, t1) by their top-2 outcome and appends the
// per-sample distance rows of Algorithm 2's M and N matrices.
func identifyTile(H *mat.Dense, y []int, t0, t1 int, scores *mat.Dense, cfg *Config,
	stats *DimStats, mRows, nRows *[][]float64, normClasses *mat.Dense,
	hn, distTrue, distTop1, distTop2 []float64) {
	d := H.Cols
	for i := t0; i < t1; i++ {
		h := H.Row(i)
		outcome, i1, i2 := Top2Outcome(scores.Row(i-t0), y[i])

		if outcome == Correct {
			stats.NumCorrect++
			continue
		}

		copy(hn, h)
		signVec(hn)

		switch outcome {
		case Partial:
			stats.NumPartial++
			// Row of M: α·|H−C_true| − β·|H−C_top1|. Large where the
			// dimension pulls the sample away from its true label (which is
			// the runner-up) and toward the wrongly-winning class.
			mat.AbsDiff(distTrue, hn, normClasses.Row(y[i]))
			mat.AbsDiff(distTop1, hn, normClasses.Row(i1))
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = cfg.Alpha*distTrue[j] - cfg.Beta*distTop1[j]
			}
			*mRows = append(*mRows, row)

		case Incorrect:
			stats.NumIncorrect++
			mat.AbsDiff(distTrue, hn, normClasses.Row(y[i]))
			mat.AbsDiff(distTop1, hn, normClasses.Row(i1))
			mat.AbsDiff(distTop2, hn, normClasses.Row(i2))
			row := make([]float64, d)
			if cfg.UseLiteralAlgorithm2 {
				// Literal Algorithm 2 line 11: N_i = α·n1 + β·n2 − θ·n with
				// n = |H−C_label|, n1 = |H−C_top1|, n2 = |H−C_top2|.
				for j := 0; j < d; j++ {
					row[j] = cfg.Alpha*distTop1[j] + cfg.Beta*distTop2[j] - cfg.Theta*distTrue[j]
				}
			} else {
				// Prose (§III-C), consistent with M's convention:
				// N_i = α·|H−C_label| − β·|H−C_top1| − θ·|H−C_top2|.
				for j := 0; j < d; j++ {
					row[j] = cfg.Alpha*distTrue[j] - cfg.Beta*distTop1[j] - cfg.Theta*distTop2[j]
				}
			}
			*nRows = append(*nRows, row)
		}
	}
}

// signVec replaces every component with its sign (zero counts positive,
// matching the sign-quantization convention used across the repo).
func signVec(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = -1
		} else {
			x[i] = 1
		}
	}
}

// regenBudget returns ⌊R·D⌋, the per-matrix candidate count.
func regenBudget(d int, rate float64) int {
	b := int(math.Floor(rate * float64(d)))
	if b < 0 {
		b = 0
	}
	if b > d {
		b = d
	}
	return b
}

// columnScores normalizes each row to unit L2 norm and sums column-wise
// (Algorithm 2 lines 13–14) — the column reduction on the training path,
// run as a deterministic chunked parallel reduction with the row
// normalization fused into the accumulate pass. Returns nil for an empty
// matrix.
func columnScores(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	d := len(rows[0])
	return mat.ChunkedColReduce(len(rows), d, make([]float64, d), func(c int, p []float64) {
		lo, hi := mat.ChunkSpan(c, len(rows))
		for _, row := range rows[lo:hi] {
			mat.Normalize(row)
			for j, v := range row {
				p[j] += v
			}
		}
	})
}

// selectUndesired picks up to `budget` dimensions. Dimensions indicted by
// BOTH error populations — the intersection of the two top-R%·D sets,
// Algorithm 2 line 15 — are taken first: these "mislead the
// classification". The remaining budget is filled with the dimensions
// carrying the least discriminative information (lowest class-weight
// variance): these "reduce the learning quality" (§I, §III). Filling to
// the full budget matches the paper's effective-dimensionality accounting
// (D* = D + D·R%·iterations, §IV-B), which implies regeneration proceeds
// at the full R%·D rate each iteration.
func selectUndesired(colM, colN, fill []float64, budget int) []int {
	if budget == 0 {
		return nil
	}
	selected := make([]int, 0, budget)
	seen := make(map[int]bool, budget)
	// Indicted dimensions: the intersection of the two top sets when both
	// error populations exist, otherwise the top set of the only one (a
	// 2-class task never produces an incorrect bucket, because the true
	// label is always within the top 2 of 2 classes).
	var indicted []int
	switch {
	case colM != nil && colN != nil:
		indicted = intersect(mat.ArgTopK(colM, budget), mat.ArgTopK(colN, budget))
	case colM != nil:
		indicted = mat.ArgTopK(colM, budget)
	case colN != nil:
		indicted = mat.ArgTopK(colN, budget)
	}
	// Veto guard against over-elimination: an indicted dimension is only
	// dropped if its global information content (saliency) sits in the
	// lower half — a strongly discriminative dimension that happens to
	// disagree with a few hard samples is kept.
	medianFill := medianOf(fill)
	for _, dim := range indicted {
		if len(selected) == budget {
			break
		}
		if fill[dim] < medianFill {
			continue // high-information dimension: vetoed
		}
		selected = append(selected, dim)
		seen[dim] = true
	}
	for _, dim := range mat.ArgTopK(fill, len(fill)) {
		if len(selected) == budget {
			break
		}
		if !seen[dim] {
			selected = append(selected, dim)
			seen[dim] = true
		}
	}
	return selected
}

// medianOf returns the median value of x (x is not modified).
func medianOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	return tmp[len(tmp)/2]
}

// saliencyFill scores each dimension by its NEGATED saliency
// (model.Model.Saliency), so ArgTopK surfaces the least-informative
// dimensions first.
func saliencyFill(m *model.Model) []float64 {
	out := m.Saliency()
	for j, v := range out {
		out[j] = -v
	}
	return out
}

// intersect returns the sorted-by-first-slice intersection of two index
// sets.
func intersect(a, b []int) []int {
	inB := make(map[int]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	var out []int
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}
