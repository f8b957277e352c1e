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
	"unicode"
)

// fuzzExempt lists the exported decoders no fuzz target calls by name,
// each with the target that reaches it through its caller.
var fuzzExempt = map[string]string{
	"p2pml.ParseExpr":       "FuzzSubscription: p2pml.Parse parses every template expression with it",
	"xmltree.Builder.Parse": "FuzzParse: its checker parses every input again into a reused Builder and compares with Parse",
}

// isDecoder reports whether a function or method name is Decode or Parse,
// alone or followed by a word (DecodeItem, ParseExpr): not Decoded.
func isDecoder(name string) bool {
	for _, verb := range []string{"Decode", "Parse"} {
		if rest, ok := strings.CutPrefix(name, verb); ok && (rest == "" || unicode.IsUpper(rune(rest[0]))) {
			return true
		}
	}
	return false
}

// recvType names a method's receiver type, "" for a function.
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestEveryDecoderIsFuzzed lists every exported Decode*/Parse* function,
// and every such method of an exported type, in the non-test files under
// internal/, and fails for one that no Fuzz* target calls. A function
// counts when called by its bare name from a test of its own package, or
// qualified from a test of any other; a method, when called by name
// (x.Decode) from a test of its own package or of one importing it.
// Everything that decodes bytes or text from outside the process gets a
// fuzz target, and scripts/fuzz.sh runs every target CI has, so a
// decoder this test passes is fuzzed in CI too.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	decoders := map[string]bool{} // "pkg.Name" or "pkg.Type.Name"
	fuzzed := map[string]bool{}
	methodCalls := map[string]bool{} // "pkg.Name": x.Name called where pkg is visible
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
				if !ok || !fn.Name.IsExported() || !isDecoder(fn.Name.Name) {
					continue
				}
				switch recv := recvType(fn); {
				case fn.Recv == nil:
					decoders[pkg+"."+fn.Name.Name] = true
				case ast.IsExported(recv):
					decoders[pkg+"."+recv+"."+fn.Name.Name] = true
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
						break
					}
					methodCalls[pkg+"."+fun.Sel.Name] = true
					for _, imported := range imports {
						methodCalls[imported+"."+fun.Sel.Name] = true
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
	for name := range decoders {
		if parts := strings.Split(name, "."); len(parts) == 3 && methodCalls[parts[0]+"."+parts[2]] {
			fuzzed[name] = true
		}
	}
	var missing []string
	for name := range decoders {
		if !fuzzed[name] && fuzzExempt[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no fuzz target: add a Fuzz* test that calls it (scripts/fuzz.sh runs every target in CI)", name)
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
