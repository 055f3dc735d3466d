package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestRegistryInstallBounds pins the install plane's bounds: an
// out-of-range size in a JSON install spec or a snapshot install's query
// answers 400 before anything is trained, loaded or allocated, and so
// does a snapshot whose header claims a shape its body does not carry.
func TestRegistryInstallBounds(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	var snapshot bytes.Buffer
	if err := fx[0].m.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	const spec = `{"demo":"DIABETES","scale":0.05,"iterations":1,`
	for _, c := range []struct {
		name, query, ctype, body string
	}{
		{"spec max_batch", "", "application/json", spec + `"dim":32,"max_batch":100000000}`},
		{"spec negative max_batch", "", "application/json", spec + `"dim":32,"max_batch":-1}`},
		{"spec replicas", "", "application/json", spec + `"dim":32,"replicas":100000}`},
		{"spec dim", "", "application/json", spec + `"dim":1000000}`},
		{"spec negative dim", "", "application/json", spec + `"dim":-5}`},
		{"spec iterations", "", "application/json", `{"demo":"DIABETES","dim":32,"iterations":1000000000}`},
		{"spec scale", "", "application/json", `{"demo":"DIABETES","dim":32,"scale":1000,"iterations":1}`},
		{"spec negative scale", "", "application/json", `{"demo":"DIABETES","dim":32,"scale":-0.5,"iterations":1}`},
		{"snapshot max_batch", "?max_batch=100000000", "application/octet-stream", snapshot.String()},
		{"snapshot replicas", "?replicas=100000", "application/octet-stream", snapshot.String()},
		// A 28-byte header claiming a 65535×65535×65535 f32 model.
		{"snapshot shape bomb", "", "application/octet-stream", rawSnapshot(1, 0xffff, 0xffff, 0xffff, false)},
		{"snapshot dim", "", "application/octet-stream", rawSnapshot(1, 1, maxInstallDim+1, 2, true)},
		{"snapshot features", "", "application/octet-stream", rawSnapshot(1, maxInstallFeatures+1, 1, 2, true)},
		{"snapshot classes", "", "application/octet-stream", rawSnapshot(1, 1, 1, maxInstallClasses+1, true)},
	} {
		req, err := http.NewRequest("PUT", ts.URL+"/t/bounded"+c.query, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", c.ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	if n := len(reg.Stats().PerTenant); n != 0 {
		t.Fatalf("%d tenants installed by rejected requests", n)
	}

	// Snapshots at the shape bounds install.
	for i, body := range []string{
		rawSnapshot(1, 1, maxInstallDim, 2, true),
		rawSnapshot(1, maxInstallFeatures, 1, 2, true),
		rawSnapshot(1, 1, 1, maxInstallClasses, true),
	} {
		req, err := http.NewRequest("PUT", fmt.Sprintf("%s/t/edge%d", ts.URL, i), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("snapshot %d at the bounds: status %d (%s)", i, resp.StatusCode, msg)
		}
	}

	// The largest sizes in use stay valid: the benchmark's boot tenant and
	// the defaults at their bounds.
	for _, is := range []InstallSpec{
		{Demo: "PAMAP2", Dim: 256, Scale: 0.05, Iterations: 5},
		{Demo: "UCIHAR", Dim: maxInstallDim, Scale: maxInstallScale, Iterations: maxInstallIterations,
			Replicas: maxInstallReplicas, MaxBatch: maxInstallBatch},
		{Demo: "UCIHAR"},
	} {
		if err := is.check(); err != nil {
			t.Errorf("%+v rejected: %v", is, err)
		}
	}
}

// TestInstallSpecUnknownFields pins the strict spec decoding of PUT
// /t/{model}: a misspelled field answers 400 and installs nothing, and
// quantize_margin, a field of older specs, is accepted and ignored.
func TestInstallSpecUnknownFields(t *testing.T) {
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	const spec = `{"demo":"DIABETES","dim":32,"scale":0.05,"iterations":1`
	for _, c := range []struct {
		name, id, body string
		want           int
	}{
		{"misspelled max_batch", "typo", spec + `,"max_bach":16}`, http.StatusBadRequest},
		{"unknown field", "extra", spec + `,"replica":2}`, http.StatusBadRequest},
		{"quantize_margin", "margin", spec + `,"quantize_margin":-0.02}`, http.StatusOK},
	} {
		req, err := http.NewRequest("PUT", ts.URL+"/t/"+c.id, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, msg, c.want)
		}
		_, err = reg.TenantStats(c.id)
		if installed := err == nil; installed != (c.want == http.StatusOK) {
			t.Errorf("%s: installed %v after status %d", c.name, installed, resp.StatusCode)
		}
	}
}

// TestSnapshotInstallQuery pins the query options of a snapshot install:
// a value that does not parse answers 400 naming its key before the body
// is decoded, and registers nothing; an absent key keeps its default.
func TestSnapshotInstallQuery(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h := NewServer(reg).Handler()
	var snapshot bytes.Buffer
	if err := fx[0].m.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		query         string
		status        int
		learning, def bool
		replicas      int
	}{
		{"", http.StatusOK, false, false, 1},
		{"?learn=true", http.StatusOK, true, false, 1},
		{"?learn=1&seed=9&replicas=2", http.StatusOK, true, false, 2},
		{"?learn=false&default=true", http.StatusOK, false, true, 1},
		{"?replicas=two", http.StatusBadRequest, false, false, 0},
		{"?max_batch=1.5", http.StatusBadRequest, false, false, 0},
		{"?seed=-1&learn=1", http.StatusBadRequest, false, false, 0},
		{"?learn=yes", http.StatusBadRequest, false, false, 0},
		{"?default=on", http.StatusBadRequest, false, false, 0},
		{"?replicas=", http.StatusBadRequest, false, false, 0},
	} {
		id := fmt.Sprintf("q%d", i)
		req := httptest.NewRequest("PUT", "/t/"+id+c.query, bytes.NewReader(snapshot.Bytes()))
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Errorf("PUT /t/%s%s: status %d (%s), want %d", id, c.query, rec.Code, rec.Body, c.status)
			continue
		}
		row, err := reg.TenantStats(id)
		if c.status != http.StatusOK {
			if !strings.Contains(rec.Body.String(), "install query") || err == nil {
				t.Errorf("%s: refused with %s, registered %v; want the query named and nothing registered",
					c.query, rec.Body, err == nil)
			}
			continue
		}
		if err != nil || row.Learning != c.learning || row.Replicas != c.replicas || c.def && reg.Default() != id {
			t.Errorf("%s: row %+v (err %v), default %q; want learning %v, %d replicas, default %v",
				c.query, row, err, reg.Default(), c.learning, c.replicas, c.def)
		}
	}
}

// TestInstallSpecLearnerSeedDefault pins InstallSpec.Seed's documented
// default: a spec without "seed" trains and attaches its learner with 42.
func TestInstallSpecLearnerSeedDefault(t *testing.T) {
	_, sp, err := InstallSpec{Demo: "DIABETES", Dim: 32, Scale: 0.05, Iterations: 1, Learn: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Learner == nil || sp.Learner.Seed != 42 {
		t.Fatalf("learner options %+v, want seed 42", sp.Learner)
	}
}

// TestInstallSpecQuantizeJudgment pins the install-time 1-bit judgment
// (disthd.Model.Quantize1BitGated on the benchmark's test split): a
// {"quantize":"1bit"} spec installs the 1-bit tier at a healthy D, where
// it holds within disthd.DefaultQuantizeMargin of the f32 model, and the
// f32 model at D=64, where sign quantization costs far more.
func TestInstallSpecQuantizeJudgment(t *testing.T) {
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	for _, c := range []struct {
		dim       int
		quantized bool
	}{{4096, true}, {64, false}} {
		body := fmt.Sprintf(`{"demo":"PAMAP2","dim":%d,"scale":0.05,"iterations":10,"quantize":"1bit"}`, c.dim)
		req, err := http.NewRequest("PUT", fmt.Sprintf("%s/t/q%d", ts.URL, c.dim), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var row TenantStats
		err = json.NewDecoder(resp.Body).Decode(&row)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("D=%d install: status %d, decode %v", c.dim, resp.StatusCode, err)
		}
		if row.Dim != c.dim || row.Quantized != c.quantized {
			t.Fatalf("D=%d install: dim %d quantized %v, want quantized %v", c.dim, row.Dim, row.Quantized, c.quantized)
		}
	}
}

// TestRegistryInstallRefusesShapeBeforeDecoding pins that a snapshot
// install judges the shape on the header: an 800 KiB 1-bit body whose
// dim is past the install bound answers 400 without first expanding its
// classes into their ±1 float view, 64 times the class payload (39 MiB
// here).
func TestRegistryInstallRefusesShapeBeforeDecoding(t *testing.T) {
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	body := rawSnapshot(2, 1, maxInstallDim+48, 512, true)
	req, err := http.NewRequest("PUT", ts.URL+"/t/big", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized 1-bit install: status %d, want 400", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("refusing a %d-byte snapshot allocated %d MiB", len(body), grew>>20)
	}
}

// rawSnapshot is a model snapshot of the given format version (1 f32, 2
// 1-bit) claiming features×dim×classes with a unit bandwidth, followed by
// its zero payload when full is set: the encoder's features+1 rows of dim
// words, then per class dim float64s (f32) or ⌈dim/64⌉ sign words (1-bit).
func rawSnapshot(version, features, dim, classes uint32, full bool) string {
	b := binary.LittleEndian.AppendUint32(nil, 0x44485644)        // "DVHD"
	for _, v := range []uint32{version, features, dim, classes} { // shape
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	if full {
		class := int(dim)
		if version == 2 {
			class = (class + 63) / 64
		}
		b = append(b, make([]byte, 8*(int(dim)*int(features+1)+int(classes)*class))...)
	}
	return string(b)
}
