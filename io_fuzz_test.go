package disthd

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/encoding"
)

// loadSeeds holds a small model's snapshots in both wire versions.
var loadSeeds = struct {
	once      sync.Once
	f64, bits []byte
}{}

func loadSnapshots(f *testing.F) (f64, bits []byte) {
	f.Helper()
	loadSeeds.once.Do(func() {
		train, _, err := SyntheticBenchmark("DIABETES", 0.05, 5)
		if err != nil {
			panic(err)
		}
		cfg := DefaultConfig()
		cfg.Dim = 70 // not a multiple of 64: the packed tail check runs
		cfg.Iterations = 2
		cfg.Seed = 5
		m, err := TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			panic(err)
		}
		q, err := m.Quantize1Bit()
		if err != nil {
			panic(err)
		}
		var a, b bytes.Buffer
		if err := m.Save(&a); err != nil {
			panic(err)
		}
		if err := q.Save(&b); err != nil {
			panic(err)
		}
		loadSeeds.f64, loadSeeds.bits = a.Bytes(), b.Bytes()
	})
	return loadSeeds.f64, loadSeeds.bits
}

// shapeHeader is a 28-byte snapshot header (magic, version, shape, sigma)
// with no payload behind it.
func shapeHeader(version, features, dim, classes uint32, sigma float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, modelMagic)
	for _, v := range []uint32{version, features, dim, classes} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(sigma))
}

// FuzzModelLoad feeds arbitrary bytes to Load, the decoder behind /swap
// and the registry's snapshot installs. It must never panic, and it must
// allocate in proportion to its input whatever shape the header claims: a
// small multiple of the input for an f32 snapshot, up to 64 times the
// class payload (plus that small multiple) for a 1-bit one, whose classes
// expand to a ±1 float view. A loaded model must have a finite positive
// bandwidth and survive a Save round trip.
func FuzzModelLoad(f *testing.F) {
	f64, bits := loadSnapshots(f)
	f.Add(f64)
	f.Add(bits)
	f.Add(f64[:len(f64)/2])
	f.Add(bits[:len(bits)-3])
	f.Add(shapeHeader(modelVersion, 0xffff, 0xffff, 0xffff, 1))
	f.Add(shapeHeader(modelVersion1Bit, 0xffffffff, 0xffffffff, 0xffffffff, 1))
	for _, sigma := range []float64{math.NaN(), math.Inf(1)} {
		bad := bytes.Clone(f64)
		binary.LittleEndian.PutUint64(bad[20:], math.Float64bits(sigma))
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		limit := 8*uint64(len(data)) + 256<<10
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == modelVersion1Bit {
			limit += 64 * uint64(len(data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("Load of %d bytes allocated %d bytes (limit %d); err=%v", len(data), got, limit, err)
		}
		if err != nil {
			return
		}
		if _, _, sigma := m.clf.Enc.(*encoding.RBF).Params(); !(sigma > 0) || math.IsInf(sigma, 1) {
			t.Fatalf("loaded a model with bandwidth %v", sigma)
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("loaded model does not save: %v", err)
		}
		back, err := Load(&out)
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		if back.Features() != m.Features() || back.Dim() != m.Dim() || back.Classes() != m.Classes() {
			t.Fatalf("round trip changed the shape")
		}
	})
}
