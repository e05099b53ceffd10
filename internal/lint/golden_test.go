package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The golden suites mirror x/tools' analysistest: each
// testdata/src/<analyzer> package carries `// want "regexp"` comments on
// the lines where a diagnostic must fire (several wants on one line for
// several diagnostics), and every diagnostic must be claimed by a want.
// The testdata packages declare their own SnapshotError/ConfigError —
// the analyzers match those contracts by name, so the suites run without
// importing the real core package.

func TestGoldenDeterminism(t *testing.T) { runGolden(t, Determinism, "determinism") }
func TestGoldenTypedErr(t *testing.T)    { runGolden(t, TypedErr, "typederr") }
func TestGoldenNoAllocZone(t *testing.T) { runGolden(t, NoAllocZone, "noalloczone") }

// A suppression directive with no reason is itself a diagnostic; it is
// reported at the directive's own line, where no want comment can sit,
// so it gets a dedicated package asserted by message instead.
func TestGoldenSuppressionNeedsReason(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "noreason"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("diagnostic %q does not demand a reason", diags[0].Message)
	}
}

// LoadDir loads every .go file directly under dir as one package whose
// imports may only be standard-library packages. Golden-suite packages
// sit outside the module, so their imports are resolved by asking the
// toolchain for stdlib export data.
func LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	// Discover the import set first so one `go list` resolves exactly
	// the stdlib closure the package needs.
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			seen[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(seen) > 0 {
		paths := make([]string, 0, len(seen))
		for p := range seen {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(dir, false, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset = token.NewFileSet()
	return check(fset, filepath.Base(dir), filenames, exportImporter(fset, exports, nil))
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants extracts `// want "re" ["re" ...]` comments, keyed by
// file and line.
func parseWants(t *testing.T, pkg *Package) map[string]map[int][]*want {
	t.Helper()
	wants := map[string]map[int][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantQuoted.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					if wants[pos.Filename] == nil {
						wants[pos.Filename] = map[int][]*want{}
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &want{re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, pkg)
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		matched := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	var unmatched []string
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					unmatched = append(unmatched, fmt.Sprintf("%s:%d: want %q", file, line, w.raw))
				}
			}
		}
	}
	for _, u := range unmatched {
		t.Errorf("no diagnostic matched %s", u)
	}
}
