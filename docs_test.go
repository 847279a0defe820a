package sdscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// citingDocs are the documents that describe the code as it is. CHANGES.md
// and docs/evidence/ are history: they may name what is gone.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "docs/DEPLOYMENT.md", "docs/PROTOCOL.md"}

// runtimeNames are runtime and operating-system names the documents cite
// bare: functions of the Go runtime's internals that profiles show, a field
// of runtime.MemStats, a setting and signals.
var runtimeNames = []string{"chanrecv", "selectgo", "StackInuse", "GOMAXPROCS", "SIGHUP", "SIGINT", "SIGTERM"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	goName      = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*(\(\))?$`)
	// fileName is a cited file, such as `compute.go` or `BENCHMARK.json`.
	fileName = regexp.MustCompile(`\.(go|json|md|log|snap|tmp|yml|sh)$`)
)

// TestDocsCiteDeclaredNames: every Go identifier or selector a current
// document puts in a code span, such as `srvConn.arrive` or
// `rpc.ServerOptions`, names something that exists. Its last component must
// be declared somewhere in the repository (a declaration, a field or its
// JSON key, a parameter, a package or a quoted name such as an
// experiment's), or, for a selector on a standard-library package such as
// `io.EOF`, in that package. A document that still cites deleted code fails
// here.
func TestDocsCiteDeclaredNames(t *testing.T) {
	declared, pkgs := repoNames(t)
	for _, n := range runtimeNames {
		declared[n] = true
	}
	stdlib := map[string]map[string]bool{}
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(b), "")
		seen := map[string]bool{}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			cite := m[1]
			if seen[cite] || !goName.MatchString(cite) || fileName.MatchString(cite) {
				continue
			}
			seen[cite] = true
			parts := strings.Split(strings.TrimSuffix(cite, "()"), ".")
			last := parts[len(parts)-1]
			if token.IsKeyword(last) || predeclared[last] {
				continue
			}
			if len(parts) > 1 && !pkgs[parts[0]] {
				pkg, ok := stdlib[parts[0]]
				if !ok {
					pkg = stdlibNames(t, parts[0])
					stdlib[parts[0]] = pkg
				}
				if pkg != nil {
					if !pkg[last] {
						t.Errorf("%s cites `%s`: the standard library's %s declares no %s", doc, cite, parts[0], last)
					}
					continue
				}
			}
			if !declared[last] {
				t.Errorf("%s cites `%s`, but nothing in the repository declares %s", doc, cite, last)
			}
		}
	}
}

// predeclared holds Go's predeclared identifiers.
var predeclared = map[string]bool{}

func init() {
	for _, n := range strings.Fields(`any append bool byte cap clear close complex
		complex64 complex128 copy delete error false float32 float64 imag int int8
		int16 int32 int64 iota len make max min new nil panic print println real
		recover rune string true uint uint8 uint16 uint32 uint64 uintptr`) {
		predeclared[n] = true
	}
}

// repoNames returns every name the repository's Go files declare, with the
// names of its directories and every identifier-shaped string literal, and
// the names of its packages.
func repoNames(t *testing.T) (names, pkgs map[string]bool) {
	t.Helper()
	names, pkgs = map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			names[d.Name()] = true
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			pkgs[addDeclared(t, names, path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, pkgs
}

// stdlibNames returns every name the standard-library package whose last
// path element is pkg declares, or nil if there is no such package.
func stdlibNames(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	dir := ""
	for _, root := range []string{"", "runtime", "sync", "encoding", "go", "net", "os"} {
		d := filepath.Join(runtime.GOROOT(), "src", root, pkg)
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			dir = d
			break
		}
	}
	if dir == "" {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range files {
		addDeclared(t, names, f)
	}
	return names
}

// addDeclared adds the names that the Go file at path declares: its package,
// top-level declarations, methods, fields and their JSON keys, parameters
// and local variables, and its identifier-shaped string literals. It returns
// the file's package name.
func addDeclared(t *testing.T, names map[string]bool, path string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names[f.Name.Name] = true
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil {
				names[id.Name] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Name)
		case *ast.TypeSpec:
			add(n.Name)
		case *ast.ValueSpec:
			add(n.Names...)
		case *ast.Field:
			add(n.Names...)
			if n.Tag != nil {
				tag, _ := strconv.Unquote(n.Tag.Value)
				key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				names[key] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && goName.MatchString(s) {
				for _, part := range strings.Split(strings.TrimSuffix(s, "()"), ".") {
					names[part] = true
				}
			}
		}
		return true
	})
	return f.Name.Name
}
