package mat

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) has wrong shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix not zeroed")
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.Row(0)[0] != 9 {
		t.Fatal("Set/Row view mismatch")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := New(2, 3)
	r := m.Row(1)
	r[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row must be a zero-copy view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := []float64{7, 6, 5, 4, 3, 2, 1}
	// 7+12+15+16+15+12+7 = 84
	if got := Dot(a, b); got != 84 {
		t.Fatalf("Dot = %v, want 84", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, []float64{1, 2, 3})
	want := []float64{3, 5, 7}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", dst, want)
		}
	}
}

// TestRowNormsMatchNorm2 pins RowNorms to Norm2 bit for bit for every
// row count that reaches its four-row pass and its remainder (1–9, 64),
// starting mid-matrix, over rows that mix zeros, subnormals, ±Inf, NaN
// and squares that overflow.
func TestRowNormsMatchNorm2(t *testing.T) {
	r := rng.New(5)
	const cols = 37
	m := New(70, cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.NormFloat64() * 3
		}
		switch i % 8 { // most rows carry one kind of special value
		case 1:
			clear(row)
		case 2:
			for j := range row {
				row[j] = 5e-324 * float64(j+1) // subnormal: squares underflow
			}
		case 3:
			row[i%cols] = math.Inf(1)
		case 4:
			row[i%cols] = math.Inf(-1)
		case 5:
			row[i%cols] = math.NaN()
		case 6:
			row[i%cols] = 1e200 // its square overflows
		case 7:
			row[i%cols], row[0] = 1e150, -1e-160 // rounding depends on the order
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for _, i0 := range []int{0, 3, m.Rows - n} {
			got := make([]float64, n)
			RowNorms(got, m, i0)
			for k, g := range got {
				if want := Norm2(m.Row(i0 + k)); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("rows %d from %d: row %d norm %v (%#x), Norm2 %v (%#x)",
						n, i0, i0+k, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestNorm2AndNormalize(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v, want 5", Norm2(x))
	}
	n := Normalize(x)
	if n != 5 || !almostEq(Norm2(x), 1, 1e-12) {
		t.Fatalf("Normalize returned %v, new norm %v", n, Norm2(x))
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

func TestCosineSim(t *testing.T) {
	if got := CosineSim([]float64{1, 0}, []float64{1, 0}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("cos of identical = %v", got)
	}
	if got := CosineSim([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0, 1e-12) {
		t.Fatalf("cos of orthogonal = %v", got)
	}
	if got := CosineSim([]float64{1, 0}, []float64{-1, 0}); !almostEq(got, -1, 1e-12) {
		t.Fatalf("cos of opposite = %v", got)
	}
	if got := CosineSim([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("cos with zero vector = %v, want 0", got)
	}
}

func TestAbsDiff(t *testing.T) {
	dst := make([]float64, 3)
	AbsDiff(dst, []float64{1, -2, 3}, []float64{4, 2, 3})
	want := []float64{3, 4, 0}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("AbsDiff = %v, want %v", dst, want)
		}
	}
}

func TestRowNormalizeL2(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, 0}, {5, 12}})
	m.RowNormalizeL2()
	if !almostEq(Norm2(m.Row(0)), 1, 1e-12) || !almostEq(Norm2(m.Row(2)), 1, 1e-12) {
		t.Fatal("rows not unit-normalized")
	}
	if Norm2(m.Row(1)) != 0 {
		t.Fatal("zero row should stay zero")
	}
}

func TestMulTSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})         // 2x2
	b := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}}) // 3x2
	c := MulTInto(New(2, 3), a, b)                     // 2x3
	want := [][]float64{{1, 2, 3}, {3, 4, 7}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("MulTInto(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulTDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulTInto mismatch did not panic")
		}
	}()
	MulTInto(New(2, 2), New(2, 3), New(2, 4))
}

func TestParallelForCoversRange(t *testing.T) {
	hit := make([]bool, 100)
	ParallelFor(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i] = true
		}
	})
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestParallelForZero(t *testing.T) {
	called := false
	ParallelFor(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	// first on ties
	if got := ArgMax([]float64{5, 5, 3}); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", got)
	}
}

func TestArgTop2(t *testing.T) {
	i1, i2 := ArgTop2([]float64{0.1, 0.9, 0.5, 0.7})
	if i1 != 1 || i2 != 3 {
		t.Fatalf("ArgTop2 = (%d,%d), want (1,3)", i1, i2)
	}
	i1, i2 = ArgTop2([]float64{2, 1})
	if i1 != 0 || i2 != 1 {
		t.Fatalf("ArgTop2 = (%d,%d), want (0,1)", i1, i2)
	}
}

func TestArgTopK(t *testing.T) {
	x := []float64{0.2, 0.9, 0.1, 0.7, 0.5}
	got := ArgTopK(x, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
	if got := ArgTopK(x, 99); len(got) != len(x) {
		t.Fatal("ArgTopK should clamp k")
	}
	if got := ArgTopK(x, 0); got != nil {
		t.Fatal("ArgTopK(x,0) should be nil")
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if !almostEq(Variance(x), 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", Variance(x))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate Mean/Variance should be 0")
	}
}

// Property: ArgTop2 agrees with ArgTopK(…, 2) on arbitrary inputs.
func TestArgTop2MatchesTopK(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%30) + 2
		r := rng.New(seed)
		x := make([]float64, m)
		for i := range x {
			// Integer-valued entries exercise tie handling.
			x[i] = float64(r.Intn(5))
		}
		i1, i2 := ArgTop2(x)
		top := ArgTopK(x, 2)
		return x[i1] == x[top[0]] && x[i2] == x[top[1]]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine similarity is bounded in [-1, 1].
func TestCosineBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]float64, 16)
		b := make([]float64, 16)
		r.FillNorm(a, 0, 1)
		r.FillNorm(b, 0, 1)
		c := CosineSim(a, b)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalization is idempotent up to float tolerance.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := make([]float64, 8)
		r.FillNorm(x, 0, 3)
		Normalize(x)
		n1 := Norm2(x)
		Normalize(x)
		n2 := Norm2(x)
		if n1 == 0 {
			return n2 == 0
		}
		return almostEq(n1, 1, 1e-9) && almostEq(n2, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot1024(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	r.FillNorm(x, 0, 1)
	r.FillNorm(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func TestFill(t *testing.T) {
	m := New(2, 3)
	m.Fill(7)
	for _, v := range m.Data {
		if v != 7 {
			t.Fatal("Fill missed an element")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatal("empty FromRows should be 0x0")
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy mismatch did not panic")
		}
	}()
	Axpy([]float64{1}, 1, []float64{1, 2})
}

func TestAbsDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AbsDiff mismatch did not panic")
		}
	}()
	AbsDiff(make([]float64, 2), []float64{1}, []float64{1, 2})
}

func TestArgMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ArgMax did not panic")
		}
	}()
	ArgMax(nil)
}

func TestArgTop2ShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short ArgTop2 did not panic")
		}
	}()
	ArgTop2([]float64{1})
}

// ParallelFor must also behave with GOMAXPROCS > 1 semantics: exercise the
// multi-worker path explicitly by restoring afterwards.
func TestParallelForMultiWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var mu sync.Mutex
	hit := make([]bool, 257) // odd size to force uneven shards
	ParallelFor(len(hit), func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			if hit[i] {
				t.Error("index covered twice")
			}
			hit[i] = true
		}
	})
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d not covered", i)
		}
	}
}
