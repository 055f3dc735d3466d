package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Req; a root span has Parent -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; the traced run writes them out at its end.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name string, parent, req int) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, req int, f func()) {
	id := r.begin(name, parent, req)
	f()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the union of its direct
// children's intervals, clipped to the span, so overlapping children are
// subtracted once. Open spans count as zero.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName groups self times by span name, in milliseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
		}
	}
	return out
}

// durationsByName groups whole span durations by name, in milliseconds.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tail returns the nearest-rank q-quantile of xs, and false when fewer than
// minTail samples lie beyond it.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 || n-rank < minTail {
		return math.NaN(), false
	}
	return sorted(xs)[rank-1], true
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method); xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	return nil
}
