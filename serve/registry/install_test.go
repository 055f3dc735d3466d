package registry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
		{"snapshot shape bomb", "", "application/octet-stream", rawSnapshot(0xffff, 0xffff, 0xffff, false)},
		{"snapshot dim", "", "application/octet-stream", rawSnapshot(1, maxInstallDim+1, 2, true)},
		{"snapshot features", "", "application/octet-stream", rawSnapshot(maxInstallFeatures+1, 1, 2, true)},
		{"snapshot classes", "", "application/octet-stream", rawSnapshot(1, 1, maxInstallClasses+1, true)},
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
		rawSnapshot(1, maxInstallDim, 2, true),
		rawSnapshot(maxInstallFeatures, 1, 2, true),
		rawSnapshot(1, 1, maxInstallClasses, true),
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

// rawSnapshot is an f32 model snapshot claiming features×dim×classes with
// a unit bandwidth, followed by its zero payload when full is set.
func rawSnapshot(features, dim, classes uint32, full bool) string {
	b := binary.LittleEndian.AppendUint32(nil, 0x44485644)  // "DVHD"
	for _, v := range []uint32{1, features, dim, classes} { // version, shape
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	if full {
		b = append(b, make([]byte, 8*int(dim)*int(features+1+classes))...)
	}
	return string(b)
}
