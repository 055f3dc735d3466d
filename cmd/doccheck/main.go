// Command doccheck is the CI guard on exported identifiers. It fails
// when a listed package exports an undocumented identifier — keeping the
// public surface (root package and serve) fully godoc'd — and when
// anything under internal/ exports an identifier that nothing runs.
//
// Usage:
//
//	doccheck <dir> [<dir>...]
//
// For every non-test Go file in each listed directory (no recursion),
// every exported top-level function, type, method, constant and variable
// must carry a doc comment. Then every .go file under the working
// directory is read, nested modules included, and every exported
// identifier declared under an internal/ directory must be referenced by
// a non-test file or by another package's test: code only its own tests
// reach is dead weight, since internal/ is not API. Violations are listed
// one per line and the exit status is 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <dir> [<dir>...]")
		os.Exit(2)
	}
	undocumented := 0
	for _, dir := range os.Args[1:] {
		missing, err := check(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
		}
		undocumented += len(missing)
	}
	dead, err := unused(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if undocumented > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifier(s)\n", undocumented)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) under internal/ that only their own tests or nothing reference\n", len(dead))
	}
	if undocumented+len(dead) > 0 {
		os.Exit(1)
	}
}

// check returns one "file:line: name" entry per undocumented exported
// identifier in dir's non-test files.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(d, report)
				case *ast.GenDecl:
					checkGen(d, report)
				}
			}
		}
	}
	return missing, nil
}

// checkFunc flags exported functions and exported methods on exported
// receivers that lack a doc comment.
func checkFunc(d *ast.FuncDecl, report func(token.Pos, string, string)) {
	if !d.Name.IsExported() || d.Doc.Text() != "" {
		return
	}
	if d.Recv == nil {
		report(d.Pos(), "function", d.Name.Name)
		return
	}
	recv := receiverType(d.Recv)
	if recv == "" || !ast.IsExported(recv) {
		return // method on an unexported type: not public surface
	}
	report(d.Pos(), "method", recv+"."+d.Name.Name)
}

// checkGen flags exported types, consts and vars: a group doc comment
// covers every spec in the group, otherwise each spec needs its own.
func checkGen(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	groupDoc := d.Doc.Text() != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDoc || s.Doc.Text() != "" || s.Comment.Text() != "" {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}

// receiverType extracts the receiver's type name, unwrapping pointers and
// generic instantiations.
func receiverType(fl *ast.FieldList) string {
	if len(fl.List) != 1 {
		return ""
	}
	t := fl.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
