package pitot

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

// TestCIPatternsMatchTests keeps the CI workflow honest about what it
// runs: every alternative of every -run and -bench pattern in ci.yml must
// match at least one Test, Fuzz or Benchmark function of the module, so a
// renamed or deleted test cannot turn a CI step into one that silently
// runs nothing. "-run -" (run no tests) is exempt.
func TestCIPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := moduleTestFuncs(t)
	flagRE := regexp.MustCompile(`-(run|bench)\s+('([^']*)'|"([^"]*)"|(\S+))`)
	matches := flagRE.FindAllStringSubmatch(string(raw), -1)
	if len(matches) == 0 {
		t.Fatal("no -run or -bench patterns found in ci.yml")
	}
	for _, m := range matches {
		pat := m[3] + m[4] + m[5]
		if m[1] == "run" && pat == "-" {
			continue
		}
		for _, alt := range patternAlternatives(pat) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %q: alternative %q: %v", m[1], pat, alt, err)
				continue
			}
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("-%s %q: alternative %q matches no Test, Fuzz or Benchmark function", m[1], pat, alt)
			}
		}
	}
}

// moduleTestFuncs lists the top-level Test, Fuzz and Benchmark functions
// of the module's test files (the nested perfbench module excluded).
func moduleTestFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// patternAlternatives expands a go test pattern into its alternatives:
// each innermost parenthesized alternation is multiplied out, and the
// result split at its top-level bars, so "A(B|C)D|E" gives ABD, ACD and E.
func patternAlternatives(pat string) []string {
	group := regexp.MustCompile(`\(([^()]*\|[^()]*)\)`)
	alts := []string{pat}
	for i := 0; i < len(alts); {
		loc := group.FindStringSubmatchIndex(alts[i])
		if loc == nil {
			i++
			continue
		}
		s := alts[i]
		var expanded []string
		for _, opt := range strings.Split(s[loc[2]:loc[3]], "|") {
			expanded = append(expanded, s[:loc[0]]+opt+s[loc[1]:])
		}
		alts = append(append(alts[:i:i], expanded...), alts[i+1:]...)
	}
	var out []string
	for _, a := range alts {
		out = append(out, strings.Split(a, "|")...)
	}
	return out
}
