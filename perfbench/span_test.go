package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a: counted once
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "d", ID: 4, Parent: 1, Start: 15, End: 20},  // a grandchild: only a loses it
		{Name: "open", ID: 5, Parent: 0, Start: 70, End: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 25, 30, 30, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeOfNestedRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, 7)
	r.timed("child", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	r.end(root)
	spans := r.snapshot()
	self := selfTimes(spans)
	if d := time.Duration(spans[0].End - spans[0].Start); self[0] < 0 || self[0] > d-2*time.Millisecond {
		t.Errorf("root self %v of %v does not exclude its 2ms child", self[0], d)
	}
	if spans[1].Req != 7 || spans[1].Parent != root {
		t.Errorf("child span %+v lost its request or parent", spans[1])
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{{100, 0.90, true}, {99, 0.90, false}, {1000, 0.99, true}, {999, 0.99, false}, {9, 0.90, false}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		v, ok := tail(xs, tc.q)
		if ok != tc.ok {
			t.Errorf("tail of %d samples at %v: reported %v, want %v", tc.n, tc.q, ok, tc.ok)
		}
		if ok && v != float64(tc.n-minTail) {
			t.Errorf("tail of %d samples at %v = %v, want %v", tc.n, tc.q, v, tc.n-minTail)
		}
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "core.encode_ms", "trace.overhead_frac", "9lives-x"} {
		if err := checkMetricName(name); err != nil {
			t.Error(err)
		}
	}
	for _, name := range []string{"", "bad name", "µs", "-lead", ".lead", strings.Repeat("x", 65)} {
		if checkMetricName(name) == nil {
			t.Errorf("name %q was accepted", name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// harness prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, harness has %q", i, w, workloads[i])
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, i int, name, u, better string, def metricDef) {
		if name != def.Name || u != def.Unit || better != def.Better {
			t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s", kind, i, name, u, better, def.Name, def.Unit, def.Better)
		}
		if err := checkMetricName(name); err != nil || !unit.MatchString(u) {
			t.Errorf("%s %d: bad name or unit %q %q", kind, i, name, u)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}

func TestWindowStatsMergesShortWindows(t *testing.T) {
	w := time.Second
	var st loadStats
	for k, n := range []int{200, 50, 200, 200} { // window 1 is too short for a p90
		for i := 0; i < n; i++ {
			st.done = append(st.done, opDone{at: time.Duration(k)*w + time.Millisecond, ms: float64(k + 1), kind: "predict", rows: 2})
		}
	}
	st.elapsed = 4 * w
	cpus := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	hosts := []hostSample{{0, 0}, {0, 100}, {30, 200}, {30, 300}, {40, 400}}
	ws := windowStats(st, w, cpus, hosts)
	if len(ws) != 2 || ws[0].rate != 250 || ws[1].rate != 400 {
		t.Fatalf("windows %+v, want two merged windows of 250 and 400 rows/s", ws)
	}
	if ws[0].cpu != 2e9/1e3/500 || ws[1].p50 != 3.5 || ws[0].p90 != 2 || ws[0].steal != 0.15 || ws[1].steal != 0.05 {
		t.Errorf("windows %+v", ws)
	}
	if ws := windowStats(loadStats{elapsed: w}, w, cpus[:2], hosts[:2]); ws != nil {
		t.Errorf("an empty phase gave windows %+v", ws)
	}
}

func TestCalmKeepsTheLeastStolenQuarter(t *testing.T) {
	steal := func(x float64) float64 { return x }
	if got := calm([]float64{0, 0.2, 0.01, 0.005}, steal); !slices.Equal(got, []float64{0, 0.01, 0.005}) {
		t.Errorf("calm kept %v, want the three at or below %v", got, maxSteal)
	}
	if got := calm([]float64{0.3, 0.2, 0.005, 0.04, 0.1, 0.5, 0.001, 0.9}, steal); !slices.Equal(got, []float64{0.005, 0.001}) {
		t.Errorf("calm kept %v, want the two at or below %v: they are a quarter", got, maxSteal)
	}
	if got := calm([]float64{0.3, 0.02, 0.2, 0.005, 0.04}, steal); !slices.Equal(got, []float64{0.005, 0.02}) {
		t.Errorf("calm kept %v of a mostly stolen run, want its least stolen quarter", got)
	}
}

func TestReadHostParsesProcStat(t *testing.T) {
	a, err := readHost()
	if err != nil {
		t.Skip(err) // no /proc on this system
	}
	b, err := readHost()
	if err != nil || b.total < a.total || b.steal < a.steal || a.steal > a.total {
		t.Errorf("host samples %+v then %+v, %v", a, b, err)
	}
	if s := b.stealSince(a); s < 0 || s > 1 {
		t.Errorf("steal share %v outside [0,1]", s)
	}
}
