// Package experiments regenerates every table and figure of the DistHD
// paper's evaluation (§IV) on the synthetic stand-ins for its five
// datasets. Each experiment has a Run function returning a typed result
// with a Render method that prints the same rows/series the paper reports;
// cmd/hdbench exposes them by experiment id and bench_test.go wires each to
// a testing.B benchmark.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the reproduction target is the qualitative shape: who wins, by
// roughly what factor, and where crossovers fall. Every table regenerates
// at full scale with `go run ./cmd/hdbench -exp all -scale 0.35`.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/dataset"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the default dataset sizes (1.0 ≈ a few thousand
	// samples per dataset; see dataset.PaperSpecs).
	Scale float64
	// Seed drives every stochastic component.
	Seed uint64
	// Quick shrinks sweeps (fewer dims, fewer iterations) so the
	// experiment finishes in seconds; used by tests and testing.B benches.
	Quick bool
}

// QuickOptions returns a CI-sized configuration.
func QuickOptions() Options {
	return Options{Scale: 0.04, Seed: 42, Quick: true}
}

// Validate reports the first problem with the options, or nil.
func (o *Options) Validate() error {
	if o.Scale <= 0 {
		return fmt.Errorf("experiments: Scale must be positive, got %v", o.Scale)
	}
	return nil
}

// loadAll generates every paper dataset at the configured scale.
func loadAll(o Options) ([]datasetPair, error) {
	var out []datasetPair
	for _, spec := range dataset.PaperSpecs(o.Scale, o.Seed) {
		train, test, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		dataset.NormalizePair(train, test)
		out = append(out, datasetPair{Name: spec.Name, Train: train, Test: test})
	}
	return out, nil
}

// loadOne generates a single named dataset.
func loadOne(o Options, name string) (datasetPair, error) {
	train, test, err := dataset.Load(name, o.Scale, o.Seed)
	if err != nil {
		return datasetPair{}, err
	}
	return datasetPair{Name: name, Train: train, Test: test}, nil
}

// datasetPair bundles the two splits of one task.
type datasetPair struct {
	Name        string
	Train, Test *dataset.Dataset
}

// timeIt returns f's wall-clock duration in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// table is a minimal aligned-text table writer shared by all renderers.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

func (t *table) render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// pct formats a fraction as a percentage with 2 decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// secs formats a duration in seconds with adaptive precision.
func secs(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0fs", v)
	case v >= 1:
		return fmt.Sprintf("%.2fs", v)
	default:
		return fmt.Sprintf("%.4fs", v)
	}
}

// geoMeanRatio returns the geometric mean of b[i]/a[i]; used for the
// paper's "X× faster" style aggregate claims.
func geoMeanRatio(num, den []float64) float64 {
	if len(num) != len(den) || len(num) == 0 {
		return 0
	}
	prod := 1.0
	n := 0
	for i := range num {
		if den[i] <= 0 || num[i] <= 0 {
			continue
		}
		prod *= num[i] / den[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// ExperimentIDs lists every runnable experiment in presentation order.
func ExperimentIDs() []string {
	return []string{
		"table1", "fig2a", "fig2b", "fig4", "fig5", "fig6", "fig7", "fig8",
		"ablA2", "ablEnc", "ablReg", "edgecost", "fig4stats", "gridsearch",
		"hdtrainers", "headline", "inputnoise",
	}
}
