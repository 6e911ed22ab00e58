package taskprune

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are exported method names the standard library calls
// through its interfaces (fmt.Stringer, error, json.Marshaler,
// json.Unmarshaler, http.Handler), so no selector in the module need name
// them.
var stdlibMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"ServeHTTP":     true,
}

// TestNoUnreferencedExports fails when an exported name outside main
// packages and bench/ is referenced by nothing but its own package's
// tests. Delete such a name, or move it into a _test.go file when a test
// needs it as an oracle or a helper.
func TestNoUnreferencedExports(t *testing.T) {
	unused, err := unreferencedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: %s is exported, but only its own package's tests refer to it", u.pos, u.name)
	}
}

// TestExportGuardCases runs the guard over a scratch module so it cannot
// rot into a no-op: an unreferenced export and one that only its own
// package's test calls are flagged, while a reference from another
// package's test or from an Example function keeps an export.
func TestExportGuardCases(t *testing.T) {
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func Used()      {}
func Helper()    {}
func Shown()     {}
func Dead()      {}
func OwnTested() {}

type T struct{}

func (T) M()             {}
func (T) N()             {}
func (T) String() string { return "" }
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) { OwnTested(); T{}.N() }

func ExampleShown() { Shown() }
`,
		"lib/ext_test.go": `package lib_test

import (
	"testing"

	"scratch/lib"
)

func TestExt(t *testing.T) { lib.OwnTested() }
`,
		"cmd/main.go": `package main

import "scratch/lib"

func main() { lib.Used(); lib.T{}.M() }
`,
		"other/other.go": "package other\n",
		"other/other_test.go": `package other

import (
	"testing"

	"scratch/lib"
)

func TestHelper(t *testing.T) { lib.Helper() }
`,
		"testdata/skip.go": "package skip\n\nfunc Skipped() {}\n",
	}
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, err := unreferencedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.name)
	}
	want := []string{"scratch/lib.Dead", "scratch/lib.OwnTested", "scratch/lib.T.N"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

// unusedExport is one exported declaration the guard found unreferenced.
type unusedExport struct {
	name string // import path, then the receiver type for a method, then the name
	pos  string // file:line of the declaration
}

// goFile is one parsed source file of a package directory.
type goFile struct {
	test bool
	ast  *ast.File
}

// goPkg is one package directory of the module.
type goPkg struct {
	importPath string
	name       string // package clause of its non-test files
	bench      bool   // under bench/: its references count, its declarations are not checked
	files      []goFile
}

// exportRefs records the references that count.
type exportRefs struct {
	names map[string]bool // "import/path.Name" of a top-level name
	// methods maps a method name seen on a selector to the import paths
	// of the test files that used it, or to "*" when a file that counts
	// for every package did.
	methods map[string]map[string]bool
}

func (r *exportRefs) method(name, from string) {
	if r.methods[name] == nil {
		r.methods[name] = map[string]bool{}
	}
	r.methods[name][from] = true
}

// methodUsed reports whether a method name counts as referenced for a
// method of package pkg: some use came from a file that counts for pkg.
func (r *exportRefs) methodUsed(name, pkg string) bool {
	for from := range r.methods[name] {
		if from != pkg {
			return true
		}
	}
	return false
}

// unreferencedExports parses every Go file of the module rooted at root,
// skipping testdata and dot-directories, and returns, sorted, the exported
// top-level declarations of non-main packages outside bench/ that nothing
// refers to but their own package's tests.
//
// Non-test files and Example functions count in full: a bare identifier
// refers to its own package's name, a selector on an imported package's
// name to that package's name, and any other selector to every method of
// that name. Other test functions count only for the other packages they
// reach: selectors through imports, and method names on selectors for
// methods outside the test's own directory.
func unreferencedExports(root string) ([]unusedExport, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, root, module)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*goPkg{}
	for _, p := range pkgs {
		byPath[p.importPath] = p
	}

	refs := &exportRefs{names: map[string]bool{}, methods: map[string]map[string]bool{}}
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := importNames(f.ast, byPath)
			for _, decl := range f.ast.Decls {
				fn, isFunc := decl.(*ast.FuncDecl)
				if f.test && !(isFunc && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example")) {
					collectTestRefs(decl, p.importPath, imports, refs)
					continue
				}
				collectRefs(decl, p.importPath, imports, refs)
			}
		}
	}

	var unused []unusedExport
	for _, p := range pkgs {
		if p.bench || p.name == "main" {
			continue
		}
		for _, f := range p.files {
			if f.test {
				continue
			}
			for _, d := range exportedDecls(f.ast) {
				name := p.importPath + "." + d.name
				if d.recv != "" {
					if stdlibMethods[d.name] || refs.methodUsed(d.name, p.importPath) {
						continue
					}
					name = p.importPath + "." + d.recv + "." + d.name
				} else if refs.names[name] {
					continue
				}
				pos := fset.Position(d.pos)
				unused = append(unused, unusedExport{name: name, pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	return unused, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parseModule parses every .go file under root into per-directory packages.
func parseModule(fset *token.FileSet, root, module string) ([]*goPkg, error) {
	var pkgs []*goPkg
	byDir := map[string]*goPkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			p = &goPkg{importPath: module}
			if rel != "." {
				p.importPath = module + "/" + rel
				p.bench = rel == "bench" || strings.HasPrefix(rel, "bench/")
			}
			byDir[dir] = p
			pkgs = append(pkgs, p)
		}
		test := strings.HasSuffix(path, "_test.go")
		if !test {
			p.name = file.Name.Name
		}
		p.files = append(p.files, goFile{test: test, ast: file})
		return nil
	})
	return pkgs, err
}

// importNames maps each local name under which a file imports a package of
// the module to that package's import path.
func importNames(f *ast.File, byPath map[string]*goPkg) map[string]string {
	names := map[string]string{}
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		p, ok := byPath[path]
		if !ok {
			continue
		}
		name := p.name
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name != "_" && name != "." {
			names[name] = path
		}
	}
	return names
}

// collectRefs records every reference a counting declaration of package
// pkg makes. Declared names, receiver types, a function's calls to itself
// and a method's calls to same-named methods (delegation) do not count.
func collectRefs(decl ast.Decl, pkg string, imports map[string]string, refs *exportRefs) {
	self, method := "", false
	if fn, ok := decl.(*ast.FuncDecl); ok {
		self, method = fn.Name.Name, fn.Recv != nil
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
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
			self = n.Name.Name
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					skip[id] = true
					refs.names[path+"."+n.Sel.Name] = true
					return true
				}
			}
			if !method || n.Sel.Name != self {
				refs.method(n.Sel.Name, "*")
			}
		case *ast.Ident:
			if !skip[n] && (method || n.Name != self) {
				refs.names[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}

// collectTestRefs records what a non-Example declaration in a test file of
// package pkg reaches in other packages.
func collectTestRefs(decl ast.Decl, pkg string, imports map[string]string, refs *exportRefs) {
	ast.Inspect(decl, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, ok := imports[id.Name]; ok {
				if path != pkg {
					refs.names[path+"."+sel.Sel.Name] = true
				}
				return true
			}
		}
		refs.method(sel.Sel.Name, pkg)
		return true
	})
}

// exportedDecl is one exported top-level name; recv is the receiver's
// base type name for a method.
type exportedDecl struct {
	name, recv string
	pos        token.Pos
}

// exportedDecls lists a file's exported top-level funcs, methods, types,
// vars and consts.
func exportedDecls(f *ast.File) []exportedDecl {
	var out []exportedDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				out = append(out, exportedDecl{name: d.Name.Name, recv: recvName(d), pos: d.Pos()})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, exportedDecl{name: s.Name.Name, pos: s.Pos()})
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, exportedDecl{name: id.Name, pos: id.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName returns the base type name of a method's receiver, or "" for a
// plain function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	expr := fn.Recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
