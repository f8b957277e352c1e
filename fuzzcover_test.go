package p2pm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fuzzExempt lists the exported decoders no fuzz target calls by name,
// each with the target that reaches it through its caller.
var fuzzExempt = map[string]string{
	"xpath.ParseNumber": "FuzzCompare: xpath.Compare parses both operands with it",
	"xpath.ParseOp":     "FuzzCompile and FuzzSubscription: every comparison in an xpath or a WHERE clause goes through it",
	"p2pml.ParseExpr":   "FuzzSubscription: p2pml.Parse parses every template expression with it",
}

// TestEveryDecoderIsFuzzed lists every exported Decode*/Parse* function
// in the non-test files under internal/ and fails for one that no Fuzz*
// target calls: by its bare name from a test of its own package, or
// qualified from a test of any other. Everything that decodes bytes or
// text from outside the process gets a fuzz target.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	decoders := map[string]bool{} // "pkg.Name"
	fuzzed := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(p))
		if !strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.IsExported() &&
					(strings.HasPrefix(fn.Name.Name, "Decode") || strings.HasPrefix(fn.Name.Name, "Parse")) {
					decoders[pkg+"."+fn.Name.Name] = true
				}
			}
			return nil
		}
		imports := map[string]string{} // local name -> package directory name
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				imports[imp.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					fuzzed[pkg+"."+fun.Name] = true
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && imports[x.Name] != "" {
						fuzzed[imports[x.Name]+"."+fun.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range decoders {
		if !fuzzed[name] && fuzzExempt[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no fuzz target: add a Fuzz* test that calls it, and list it in ci.yml's fuzz-smoke and soak.yml's fuzz-soak", name)
	}
	for name := range fuzzExempt {
		if !decoders[name] {
			t.Errorf("exemption %s names no exported decoder; delete it", name)
		}
		if fuzzed[name] {
			t.Errorf("exemption %s is not needed: a fuzz target calls it", name)
		}
	}
	if len(decoders) < 5 {
		t.Fatalf("found only %d decoders under internal/; is the walk reading the tree?", len(decoders))
	}
}
