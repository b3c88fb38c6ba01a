package app

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCmdStaysThin is the in-repo mirror of the CI grep: no cmd/ file may
// reintroduce an inline strategy/adversary name table or a wire-spec
// literal. Component names belong in internal/registry; the frontends are
// stubs over this package.
func TestCmdStaysThin(t *testing.T) {
	banned := regexp.MustCompile(`"(A_[A-Za-z_]+|EDF[A-Za-z_]*|first_fit|random_fit|ranking)"` +
		`|"(fix|current|current_factorial|fix_balance|eager|balance|universal|universal_anyd|local_fix|edf)"` +
		`|BuildSpec\{`)
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no cmd/ sources found; wrong working directory?")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(b); m != nil {
			t.Errorf("%s contains %q: component name tables belong in internal/registry", f, m)
		}
	}
}

// testOnlyAllowed lists the exported names of internal/matching and
// internal/offline that may lack a non-test caller, each with its reason.
var testOnlyAllowed = map[string]string{
	"NewFlowNetwork":    "Dinic max-flow: the OPT oracle offline's tests share across the package boundary",
	"MaxFlow":           "Dinic max-flow: the OPT oracle offline's tests share across the package boundary",
	"MaxMatchingByFlow": "Dinic max-flow: the OPT oracle offline's tests share across the package boundary",
	"KonigCover":        "kept for the planned certificate of every reported OPT",
	"HallWitness":       "kept for the planned certificate of every reported OPT",
	"OverloadedSets":    "kept for the planned live classification of losses",
}

// TestNoTestOnlyExports keeps test-only code out of the solver packages:
// every exported function or method of internal/matching and
// internal/offline must be named, as a word, in some other non-test Go file
// of the repository (perfbench included), or be listed in testOnlyAllowed.
// It is a name grep, so a common method name passes on any caller of that
// name. Hidden directories (.git, benchmark build caches) and testdata are
// not scanned.
func TestNoTestOnlyExports(t *testing.T) {
	root := filepath.Join("..", "..")
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	filesOf := map[string]map[string]bool{} // word -> non-test files naming it
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range word.FindAllString(string(b), -1) {
			if filesOf[w] == nil {
				filesOf[w] = map[string]bool{}
			}
			filesOf[w][path] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range []string{"matching", "offline"} {
		dir := filepath.Join(root, "internal", pkg)
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				checked++
				name := fn.Name.Name
				if _, ok := testOnlyAllowed[name]; ok {
					continue
				}
				callers := 0
				for other := range filesOf[name] {
					if other != path {
						callers++
					}
				}
				if callers == 0 {
					t.Errorf("%s: exported %s is named in no other non-test file: move it into a _test.go file or delete it", path, name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no exported functions found; wrong working directory?")
	}
}
