// Package assoc implements the associative item memory (cleanup memory)
// that hyperdimensional architectures are built on: a store of named
// hypervectors supporting nearest-neighbor recall of a noisy query back to
// its clean stored form. Bundled or bound composites can be decomposed by
// repeatedly querying the memory — the "brain-like reasoning" substrate
// the DistHD paper cites (GrapHD, ref [17]); HDC classification itself is
// the special case where the memory holds one item per class.
package assoc

import (
	"fmt"

	"repro/internal/mat"
)

// Memory is an associative store of labeled hypervectors. All items share
// one dimensionality, fixed by the first Store. Item norms are cached at
// Store time so recall is one blocked matrix product (mat.MulTInto) plus a
// cheap normalization rather than per-item cosine loops. Memory is not
// safe for concurrent use.
type Memory struct {
	dim   int
	names []string
	items *mat.Dense
	norms []float64 // cached Euclidean norm per item row
	index map[string]int
}

// New returns an empty memory for hypervectors of the given dimension.
func New(dim int) *Memory {
	if dim <= 0 {
		panic(fmt.Sprintf("assoc: non-positive dimension %d", dim))
	}
	return &Memory{dim: dim, index: map[string]int{}}
}

// Len returns the number of stored items.
func (m *Memory) Len() int { return len(m.names) }

// Store adds (or replaces) an item under the given name. The hypervector
// is copied.
func (m *Memory) Store(name string, h []float64) error {
	if name == "" {
		return fmt.Errorf("assoc: empty item name")
	}
	if len(h) != m.dim {
		return fmt.Errorf("assoc: item %q has dimension %d, memory expects %d", name, len(h), m.dim)
	}
	if i, ok := m.index[name]; ok {
		copy(m.items.Row(i), h)
		m.norms[i] = mat.Norm2(h)
		return nil
	}
	// Grow the backing matrix by one row.
	grown := mat.New(len(m.names)+1, m.dim)
	if m.items != nil {
		copy(grown.Data, m.items.Data)
	}
	copy(grown.Row(len(m.names)), h)
	m.items = grown
	m.norms = append(m.norms, mat.Norm2(h))
	m.index[name] = len(m.names)
	m.names = append(m.names, name)
	return nil
}

// scoreInto writes the cosine similarity of query (with norm qn) against
// every stored item into dst via the blocked kernel; zero-norm queries or
// items score 0.
func (m *Memory) scoreInto(query []float64, qn float64, dst []float64) {
	qv := mat.View(1, m.dim, query)
	sv := mat.View(1, m.Len(), dst)
	mat.MulTInto(sv, qv, m.items)
	for i := range dst {
		if qn == 0 || m.norms[i] == 0 {
			dst[i] = 0
		} else {
			dst[i] /= qn * m.norms[i]
		}
	}
}

// Recall returns the stored item most similar to the query, its name, and
// the cosine similarity. An empty memory returns an error. Scores are
// computed as one kernel pass over the item matrix using a pooled buffer.
func (m *Memory) Recall(query []float64) (name string, item []float64, sim float64, err error) {
	if m.Len() == 0 {
		return "", nil, 0, fmt.Errorf("assoc: recall from empty memory")
	}
	if len(query) != m.dim {
		return "", nil, 0, fmt.Errorf("assoc: query has dimension %d, memory expects %d", len(query), m.dim)
	}
	s := mat.GetScratch(m.Len())
	m.scoreInto(query, mat.Norm2(query), s.Buf)
	best := mat.ArgMax(s.Buf)
	bestSim := s.Buf[best]
	s.Release()
	out := make([]float64, m.dim)
	copy(out, m.items.Row(best))
	return m.names[best], out, bestSim, nil
}

// RecallAbove behaves like Recall but fails the lookup when the best
// similarity is below the threshold — distinguishing "recognized, cleaned
// up" from "unknown input", which a bare argmax cannot.
func (m *Memory) RecallAbove(query []float64, threshold float64) (string, []float64, float64, error) {
	name, item, sim, err := m.Recall(query)
	if err != nil {
		return "", nil, 0, err
	}
	if sim < threshold {
		return "", nil, sim, fmt.Errorf("assoc: best match %q at similarity %.3f below threshold %.3f", name, sim, threshold)
	}
	return name, item, sim, nil
}
