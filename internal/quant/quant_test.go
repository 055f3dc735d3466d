package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestValidBits(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		if !ValidBits(b) {
			t.Fatalf("bits %d should be valid", b)
		}
	}
	for _, b := range []int{0, 3, 5, 16, -1} {
		if ValidBits(b) {
			t.Fatalf("bits %d should be invalid", b)
		}
	}
}

func TestPackRejectsBad(t *testing.T) {
	if _, err := Pack([]float64{1}, 3); err == nil {
		t.Fatal("unsupported precision accepted")
	}
	if _, err := Pack(nil, 8); err == nil {
		t.Fatal("empty tensor accepted")
	}
}

func TestRoundTrip8Bit(t *testing.T) {
	vals := []float64{-1, -0.5, 0, 0.25, 0.9999, 1}
	img, err := Pack(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := img.Unpack()
	for i, v := range vals {
		if math.Abs(got[i]-v) > 1.0/127+1e-9 {
			t.Fatalf("8-bit round trip: %v -> %v", v, got[i])
		}
	}
}

func TestRoundTrip1BitIsSign(t *testing.T) {
	vals := []float64{-3, -0.1, 0, 0.1, 3}
	img, err := Pack(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := img.Unpack()
	// scale = 3, so outputs are ±3 with sign matching (0 counts positive)
	want := []float64{-3, -3, 3, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("1-bit round trip = %v, want %v", got, want)
		}
	}
}

func TestHigherPrecisionLowerError(t *testing.T) {
	r := rng.New(1)
	vals := make([]float64, 4096)
	r.FillNorm(vals, 0, 1)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{1, 2, 4, 8} {
		img, err := Pack(vals, bits)
		if err != nil {
			t.Fatal(err)
		}
		got := img.Unpack()
		var mse float64
		for i := range vals {
			d := got[i] - vals[i]
			mse += d * d
		}
		mse /= float64(len(vals))
		if mse >= prev {
			t.Fatalf("MSE did not decrease at %d bits: %v >= %v", bits, mse, prev)
		}
		prev = mse
	}
}

func TestZeroTensor(t *testing.T) {
	img, err := Pack([]float64{0, 0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := img.Unpack()
	for _, v := range got[1:] { // index 0 under 1-bit convention aside, 4-bit: all zero
		if v != 0 {
			t.Fatalf("zero tensor round trip produced %v", got)
		}
	}
}

func TestFlipBitsRateZeroNoop(t *testing.T) {
	img, err := Pack([]float64{1, -1, 0.5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := img.Clone()
	if err := img.FlipBits(0, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	for i := range img.Words {
		if img.Words[i] != before.Words[i] {
			t.Fatal("rate 0 changed the image")
		}
	}
}

func TestFlipBitsExactCount(t *testing.T) {
	r := rng.New(2)
	vals := make([]float64, 1024)
	r.FillNorm(vals, 0, 1)
	img, err := Pack(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := img.Clone()
	rate := 0.05
	if err := img.FlipBits(rate, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range img.Words {
		x := img.Words[i] ^ before.Words[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	want := int(math.Round(rate * float64(img.TotalBits())))
	if diff != want {
		t.Fatalf("flipped %d bits, want exactly %d", diff, want)
	}
}

func TestFlipBitsBadRate(t *testing.T) {
	img, _ := Pack([]float64{1}, 8)
	if err := img.FlipBits(-0.1, rng.New(1)); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := img.FlipBits(1.5, rng.New(1)); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestFlipAllBitsInvertible(t *testing.T) {
	vals := []float64{1, -1, 0.5, -0.25}
	img, err := Pack(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	orig := img.Clone()
	if err := img.FlipBits(1, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	// flipping all bits twice restores the image
	if err := img.FlipBits(1, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	for i := range img.Words {
		if img.Words[i] != orig.Words[i] {
			t.Fatal("double full flip did not restore image")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	img, _ := Pack([]float64{1, 2, 3}, 8)
	c := img.Clone()
	c.Words[0] ^= 0xff
	if img.Words[0] == c.Words[0] {
		t.Fatal("Clone shares words")
	}
}

// Property: round trip error is bounded by scale/maxCode for every
// precision and arbitrary inputs.
func TestRoundTripErrorBound(t *testing.T) {
	f := func(seed uint64, rawBits uint8) bool {
		bits := []int{2, 4, 8}[int(rawBits)%3]
		r := rng.New(seed)
		vals := make([]float64, 64)
		r.FillNorm(vals, 0, 2)
		img, err := Pack(vals, bits)
		if err != nil {
			return false
		}
		got := img.Unpack()
		bound := img.Scale/float64(maxCode(bits)) + 1e-9
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > bound {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: packing is deterministic and Unpack(Pack(x)) is idempotent
// (quantizing an already-quantized tensor changes nothing).
func TestQuantizationIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		vals := make([]float64, 32)
		r.FillNorm(vals, 0, 1)
		img, err := Pack(vals, 4)
		if err != nil {
			return false
		}
		once := img.Unpack()
		img, err = Pack(once, 4)
		if err != nil {
			return false
		}
		twice := img.Unpack()
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
