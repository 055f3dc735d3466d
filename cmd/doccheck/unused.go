package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// stdMethods are method names that standard-library interfaces call on
// the program's behalf (fmt, errors, net/http, io, sort, heap, json), so
// no selector in the tree has to name them.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Format": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// moduleLine matches the module directive of a go.mod file.
var moduleLine = regexp.MustCompile(`(?m)^module\s+"?([^"\s]+)`)

// pkgDir is one directory's package.
type pkgDir struct {
	path, name   string // import path, package name
	internal     bool   // at or below an internal/ directory
	files, tests []*ast.File
}

// unused returns one "file:line: ..." line per exported identifier
// declared under an internal/ directory below root that no non-test file
// and no other package's test references. Every .go file below root is
// read, nested modules included (each go.mod restarts the import path);
// directories the go command ignores (testdata, ".x", "_x") are skipped.
// A pkg.Name reference is resolved through the file's imports; a method
// counts as used when any selector names it, whatever the receiver.
func unused(root string) ([]string, error) {
	fset := token.NewFileSet()
	byDir := map[string]*pkgDir{}
	var dirs []*pkgDir
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name, parent := d.Name(), byDir[filepath.Dir(p)]
			g := &pkgDir{path: name}
			if p != root {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				g.path, g.internal = path.Join(parent.path, name), parent.internal || name == "internal"
			}
			if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
				if m := moduleLine.FindSubmatch(mod); m != nil {
					g.path = string(m[1])
				}
			}
			byDir[p] = g
			dirs = append(dirs, g)
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g := byDir[filepath.Dir(p)]
		if strings.HasSuffix(p, "_test.go") {
			g.tests = append(g.tests, f)
		} else {
			g.files, g.name = append(g.files, f), f.Name.Name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := map[string]string{}
	for _, g := range dirs {
		names[g.path] = g.name
	}
	used := map[string]bool{}                 // keys non-test files reference
	testUsed := map[string]map[*pkgDir]bool{} // keys each package's tests reference
	for _, g := range dirs {
		for _, f := range g.files {
			refs(f, g.path, names, func(k string) { used[k] = true })
		}
		for _, f := range g.tests {
			refs(f, g.path, names, func(k string) {
				if testUsed[k] == nil {
					testUsed[k] = map[*pkgDir]bool{}
				}
				testUsed[k][g] = true
			})
		}
	}

	var out []string
	for _, g := range dirs {
		if !g.internal {
			continue
		}
		check := func(id *ast.Ident, kind, name, key string) {
			t := testUsed[key]
			if id.IsExported() && !used[key] && (len(t) == 0 || len(t) == 1 && t[g]) {
				out = append(out, fmt.Sprintf("%s: exported %s %s.%s is referenced by no non-test file and no other package's test",
					fset.Position(id.Pos()), kind, g.name, name))
			}
		}
		for _, f := range g.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						check(d.Name, "function", d.Name.Name, g.path+"."+d.Name.Name)
					} else if !stdMethods[d.Name.Name] {
						check(d.Name, "method", receiverType(d.Recv)+"."+d.Name.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ids := []*ast.Ident{}
						switch s := s.(type) {
						case *ast.TypeSpec:
							ids = append(ids, s.Name)
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							check(id, strings.ToLower(d.Tok.String()), id.Name, g.path+"."+id.Name)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// refs calls use with the key of every identifier file f of package pkg
// references: "import/path.Name" for a qualified or same-package name, the
// bare selector for anything else (a method or a field). The names a
// declaration introduces and a method's receiver are not references.
func refs(f *ast.File, pkg string, names map[string]string, use func(string)) {
	imports := map[string]string{}
	for _, s := range f.Imports {
		p, _ := strconv.Unquote(s.Path.Value)
		name := names[p]
		if s.Name != nil {
			name = s.Name.Name
		} else if name == "" {
			name = path.Base(p)
		}
		imports[name] = p
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
				use(imports[id.Name] + "." + n.Sel.Name)
				return false
			}
			use(n.Sel.Name)
		case *ast.Ident:
			if !skip[n] {
				use(pkg + "." + n.Name)
			}
		}
		return true
	})
}
