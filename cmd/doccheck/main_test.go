package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays files (slash paths relative to the root) out under a
// fresh temporary module root, example.com/m, and returns the root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.24\n"
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestUnusedScan runs the internal/ scan on throwaway modules: a case
// with a want fails with exactly one problem naming want, a case without
// one passes.
func TestUnusedScan(t *testing.T) {
	const exportX = "package p\n\n// X is exported.\nfunc X() {}\n"
	const callX = "package main\n\nimport \"example.com/m/internal/p\"\n\nfunc main() { p.X() }\n"
	const typeT = `package p

// T is exported.
type T struct{}

// New returns a T.
func New() T { return T{} }

// M is a method.
func (T) M() {}

// Error implements error.
func (T) Error() string { return "" }

// String implements fmt.Stringer.
func (T) String() string { return "" }
`
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"used by a non-test file elsewhere", map[string]string{
			"internal/p/p.go": exportX,
			"cmd/a/main.go":   callX,
		}, ""},
		{"used only by its own test", map[string]string{
			"internal/p/p.go":      exportX,
			"internal/p/p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) { X() }\n",
		}, "internal/p/p.go:4:6: exported function p.X"},
		{"used only by its own external test package", map[string]string{
			"internal/p/p.go": exportX,
			"internal/p/x_test.go": "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/internal/p\"\n)\n\n" +
				"func TestX(t *testing.T) { p.X() }\n",
		}, "internal/p/p.go:4:6: exported function p.X"},
		{"used by another package's test", map[string]string{
			"internal/p/p.go": exportX,
			"q/q_test.go": "package q\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/internal/p\"\n)\n\n" +
				"func TestX(t *testing.T) { p.X() }\n",
		}, ""},
		{"referenced nowhere", map[string]string{
			"internal/p/p.go": exportX,
		}, "exported function p.X"},
		{"unused method", map[string]string{
			"internal/p/p.go": typeT,
			"cmd/a/main.go":   "package main\n\nimport \"example.com/m/internal/p\"\n\nfunc main() { _ = p.New() }\n",
		}, "internal/p/p.go:10:10: exported method p.T.M"},
		{"unused Error and String methods", map[string]string{
			"internal/p/p.go": typeT,
			"cmd/a/main.go":   "package main\n\nimport \"example.com/m/internal/p\"\n\nfunc main() { p.New().M() }\n",
		}, ""},
		{"unreferenced export outside internal/", map[string]string{
			"lib/l.go": "package l\n\n// X is exported.\nfunc X() {}\n",
		}, ""},
		{"used by a nested module through a replace", map[string]string{
			"internal/p/p.go": exportX,
			"bench/go.mod": "module example.com/m/bench\n\ngo 1.24\n\nrequire example.com/m v0.0.0\n\n" +
				"replace example.com/m => ../\n",
			"bench/main.go": callX,
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := writeTree(t, c.files)
			got, err := unused(root)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == "" {
				if len(got) != 0 {
					t.Fatalf("scan failed a clean tree: %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(filepath.ToSlash(got[0]), c.want) {
				t.Fatalf("scan = %q, want one problem naming %q", got, c.want)
			}
		})
	}
}

// TestUndocumentedExport keeps the doc rule: an exported function without
// a doc comment is reported by name.
func TestUndocumentedExport(t *testing.T) {
	root := writeTree(t, map[string]string{"d/d.go": "package d\n\nfunc X() {}\n"})
	got, err := check(filepath.Join(root, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0], "undocumented exported function X") {
		t.Fatalf("check = %q, want the undocumented X", got)
	}
}
