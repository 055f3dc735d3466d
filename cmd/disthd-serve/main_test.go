package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadManifestUnknownFields pins the strict decoding of a -manifest
// file: an entry with a field no spec has fails the boot, and an entry
// with quantize_margin, a field of older specs, loads with it ignored.
func TestLoadManifestUnknownFields(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"valid", `[{"id":"a","demo":"UCIHAR","dim":64},{"id":"b","demo":"DIABETES","learn":true}]`, true},
		{"misspelled max_batch", `[{"id":"a","demo":"UCIHAR"},{"id":"b","demo":"DIABETES","max_bach":16}]`, false},
		{"misspelled id", `[{"ID ":"a","demo":"UCIHAR"}]`, false},
		{"quantize_margin", `[{"id":"a","demo":"UCIHAR","quantize":"1bit","quantize_margin":-0.02}]`, true},
	} {
		path := filepath.Join(dir, "manifest.json")
		if err := os.WriteFile(path, []byte(c.body), 0o600); err != nil {
			t.Fatal(err)
		}
		specs, err := loadManifest(path)
		if (err == nil) != c.ok {
			t.Errorf("%s: loadManifest error %v, want ok %v", c.name, err, c.ok)
			continue
		}
		if c.ok && (len(specs) == 0 || specs[0].ID != "a") {
			t.Errorf("%s: loaded %+v", c.name, specs)
		}
	}
}
