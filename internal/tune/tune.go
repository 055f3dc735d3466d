// Package tune implements the grid-search protocol the DistHD paper uses
// to pick hyperparameters for its DNN and SVM comparators ("we utilize the
// common practice of grid search to identify the best hyper-parameters for
// each model", §IV-B): enumerate the cartesian product of per-axis values,
// score each point with a user-supplied objective on a validation split,
// and return the best point. The search is deterministic and sequential —
// candidates are scored in enumeration order, first-best wins ties — so
// tuned experiments stay reproducible.
package tune

import (
	"fmt"
	"math"
)

// Axis is one hyperparameter dimension of the grid.
type Axis struct {
	// Name labels the axis in Point maps ("lr", "hidden", …).
	Name string
	// Values are the candidate settings, tried in order.
	Values []float64
}

// Point maps axis names to chosen values.
type Point map[string]float64

// Result reports the winning point.
type Result struct {
	Best      Point
	BestScore float64
	// Evaluated counts scored grid points.
	Evaluated int
	// Scores records every point's score in enumeration order.
	Scores []float64
}

// Search enumerates the full grid and returns the point with the highest
// objective value. The objective may return an error to abort the search.
func Search(axes []Axis, objective func(Point) (float64, error)) (*Result, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("tune: no axes to search")
	}
	for _, a := range axes {
		if a.Name == "" {
			return nil, fmt.Errorf("tune: axis with empty name")
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("tune: axis %q has no values", a.Name)
		}
	}
	res := &Result{BestScore: math.Inf(-1)}
	idx := make([]int, len(axes))
	for {
		p := Point{}
		for i, a := range axes {
			p[a.Name] = a.Values[idx[i]]
		}
		score, err := objective(p)
		if err != nil {
			return nil, fmt.Errorf("tune: objective at %v: %w", p, err)
		}
		res.Evaluated++
		res.Scores = append(res.Scores, score)
		if score > res.BestScore {
			res.BestScore = score
			res.Best = p
		}
		// advance the mixed-radix counter
		i := 0
		for ; i < len(axes); i++ {
			idx[i]++
			if idx[i] < len(axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i == len(axes) {
			return res, nil
		}
	}
}
