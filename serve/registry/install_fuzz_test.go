package registry

import (
	"bytes"
	"testing"
)

// FuzzInstallSpec decodes arbitrary bytes through DecodeSpec the way PUT
// /t/{model} decodes a JSON body, and the way disthd-serve decodes a
// -manifest file (a JSON array of the same specs, each with an "id"),
// then runs the bound check Build runs before training — it never
// trains. Decoding and checking must not panic, and every spec the check
// accepts holds each size within its maxInstall* bound.
func FuzzInstallSpec(f *testing.F) {
	for _, seed := range []string{
		// Specs from the docs, examples and smoke scripts.
		`{"demo": "UCIHAR", "dim": 384, "scale": 0.1, "iterations": 3}`,
		`{"demo":"DIABETES","dim":48,"scale":0.05,"iterations":2,"learn":true,"seed":7}`,
		`{"demo":"DIABETES","dim":64,"scale":0.05,"seed":7,"iterations":2,"max_batch":16}`,
		`{"demo":"UCIHAR","quantize":"1bit","quantize_margin":-0.02,"default":true}`,
		`[{"id":"a","demo":"UCIHAR","dim":64},{"id":"b","demo":"DIABETES","learn":true}]`,
		// Every bound, at and one past it, and below zero.
		`{"dim":10000,"scale":1,"iterations":200,"replicas":64,"max_batch":1024}`,
		`{"dim":10001}`, `{"scale":1.0000001}`, `{"iterations":201}`, `{"replicas":65}`, `{"max_batch":1025}`,
		`{"dim":-1,"scale":-0.5,"iterations":-1,"replicas":-1,"max_batch":-1}`,
		`{"dim":9223372036854775807,"max_batch":-9223372036854775808}`,
		`{"scale":1e308}`, `{"scale":5e-324}`, `{"dim":1e3}`,
		`{}`, `null`, `[]`, `[null]`, `{"dim":"64"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var one InstallSpec
		if DecodeSpec(bytes.NewReader(body), &one) == nil {
			checkAccepted(t, one)
		}
		var manifest []struct {
			ID string `json:"id"`
			InstallSpec
		}
		if DecodeSpec(bytes.NewReader(body), &manifest) == nil {
			for _, e := range manifest {
				checkAccepted(t, e.InstallSpec)
			}
		}
	})
}

// checkAccepted fails t when is passes the bound check with a size out of
// range.
func checkAccepted(t *testing.T, is InstallSpec) {
	t.Helper()
	if is.check() != nil {
		return
	}
	if is.Dim < 0 || is.Dim > maxInstallDim ||
		is.Iterations < 0 || is.Iterations > maxInstallIterations ||
		is.Replicas < 0 || is.Replicas > maxInstallReplicas ||
		is.MaxBatch < 0 || is.MaxBatch > maxInstallBatch ||
		!(is.Scale >= 0 && is.Scale <= maxInstallScale) {
		t.Fatalf("out-of-range spec accepted: %+v", is)
	}
}
