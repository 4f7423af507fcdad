package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, modPath)
}

// wantPattern extracts the quoted or backquoted regexps of a // want
// comment.
var wantPattern = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)+)\"")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// runWantTest loads the fixture package in dir, runs the analyzers, and
// checks the diagnostics against the fixture's // want comments: every
// diagnostic must match a want on its line, and every want must be hit.
func runWantTest(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantPattern.FindAllStringSubmatch(rest, -1) {
					pat := m[1]
					if pat == "" {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Fatalf("%s:%d: bad want string: %v", pos.Filename, pos.Line, err)
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}

	diags := Run([]*Package{pkg}, analyzers)
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Msg) {
				w.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %v", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestUnitsafetyFixture(t *testing.T) {
	runWantTest(t, "testdata/src/unitsafety", []*Analyzer{Unitsafety})
}

func TestSimpurityFixture(t *testing.T) {
	runWantTest(t, "testdata/src/internal/sim", []*Analyzer{Simpurity})
}

func TestLockioFixture(t *testing.T) {
	runWantTest(t, "testdata/src/internal/remote", []*Analyzer{Lockio})
}

func TestErrdropFixture(t *testing.T) {
	runWantTest(t, "testdata/src/errdrop", []*Analyzer{Errdrop})
}

func TestDeadlinecheckFixture(t *testing.T) {
	runWantTest(t, "testdata/src/deadlinecheck/internal/remote", []*Analyzer{Deadlinecheck})
}

func TestTagswitchFixture(t *testing.T) {
	runWantTest(t, "testdata/src/tagswitch", []*Analyzer{Tagswitch})
}

func TestGoloopFixture(t *testing.T) {
	runWantTest(t, "testdata/src/goloop/internal/remote", []*Analyzer{Goloop})
}

func TestLockorderFixture(t *testing.T) {
	runWantTest(t, "testdata/src/lockorder/internal/remote", []*Analyzer{Lockorder})
}

// TestInjectedViolationIsFatal pins the cmd/gmslint exit contract: an
// injected violation must yield findings, and findings are what the
// command turns into a nonzero exit.
func TestInjectedViolationIsFatal(t *testing.T) {
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir("testdata/src/errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{pkg}, All()); len(diags) == 0 {
		t.Fatal("injected violations produced no findings; gmslint would exit 0")
	}
}

func TestSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import "time"

//lint:allow simpurity harness timing is deliberately wall-clock for the operator
var t0 = time.Now()

var t1 = time.Now() //lint:allow simpurity trailing placement covers its own line

//lint:allow simpurity
var t2 = time.Now()
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{Simpurity})
	if len(diags) != 1 {
		t.Fatalf("want exactly the missing-justification finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Check != "allow" || !strings.Contains(diags[0].Msg, "justification") {
		t.Fatalf("want a missing-justification finding, got %v", diags[0])
	}
}

// TestStaleAllowIsReported pins the suppression audit: an allow naming a
// check that does not exist (a refactor leftover) is itself a finding, and
// Allows lists every mark with its justification.
func TestStaleAllowIsReported(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import "time"

var t0 = time.Now() //lint:allow simpurity harness timing is wall-clock on purpose

var t1 = time.Now() //lint:allow simpurityy typo'd check name left by a refactor
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{Simpurity})
	var stale []Diagnostic
	for _, d := range diags {
		if d.Check == "allow" && strings.Contains(d.Msg, "unknown check") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 || !strings.Contains(stale[0].Msg, "simpurityy") {
		t.Fatalf("want exactly one stale-allow finding naming simpurityy, got %v", diags)
	}
	// The typo'd allow suppresses nothing, so the simpurity finding on t1
	// must survive.
	found := false
	for _, d := range diags {
		if d.Check == "simpurity" && d.Pos.Line == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("typo'd allow swallowed the finding it no longer names: %v", diags)
	}

	allows := Allows([]*Package{pkg})
	if len(allows) != 2 {
		t.Fatalf("want 2 allows, got %v", allows)
	}
	if allows[0].Check != "simpurity" || !strings.Contains(allows[0].Justification, "wall-clock on purpose") {
		t.Fatalf("allow not parsed with its justification: %+v", allows[0])
	}
}

// TestRepositoryIsLintClean runs the full suite over the whole module —
// the same gate as `make lint` — so a violation introduced anywhere fails
// the ordinary test run, not just CI.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	loader := newTestLoader(t)
	pkgs, err := loader.Expand([]string{filepath.Join(loader.Root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Error(d)
	}
}

// TestDeletingProtocolCaseArmFails pins the acceptance contract of the
// tagswitch analyzer on the real code: removing any `case T*` arm from any
// exhaustive protocol tag switch in internal/remote must produce a finding
// naming the dropped tags (and so fail `make lint`). Those switches have no
// default — proto.Reader.Next rejects unknown tag bytes, so exhaustiveness
// is safe — which is exactly what makes this mutation detectable. A switch
// whose default refuses (a proto.Serve handler's) turns a deleted arm into
// a refusal at run time instead, which is what the remote package's
// TestServeRefusesWhatNoHandlerTakes catches.
func TestDeletingProtocolCaseArmFails(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks internal/remote; skipped in -short")
	}
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir(filepath.Join(loader.Root, "internal", "remote"))
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil || tagEnumType(pkg.Info, sw.Tag) == nil || hasDefault(sw) {
				return true
			}
			swLine := pkg.Fset.Position(sw.Pos()).Line
			saved := sw.Body.List
			for i, clause := range saved {
				cc, ok := clause.(*ast.CaseClause)
				if !ok || cc.List == nil {
					continue
				}
				var deleted []string
				for _, e := range cc.List {
					switch e := ast.Unparen(e).(type) {
					case *ast.SelectorExpr:
						deleted = append(deleted, e.Sel.Name)
					case *ast.Ident:
						deleted = append(deleted, e.Name)
					}
				}
				sw.Body.List = append(append([]ast.Stmt{}, saved[:i]...), saved[i+1:]...)
				diags := Run([]*Package{pkg}, []*Analyzer{Tagswitch})
				sw.Body.List = saved
				mutations++

				var hit *Diagnostic
				for j := range diags {
					if diags[j].Check == "tagswitch" && diags[j].Pos.Line == swLine {
						hit = &diags[j]
					}
				}
				if hit == nil {
					t.Errorf("deleting the %v arm of the switch at line %d produced no tagswitch finding", deleted, swLine)
					continue
				}
				for _, name := range deleted {
					if !strings.Contains(hit.Msg, name) {
						t.Errorf("finding for the deleted %v arm does not name %s: %s", deleted, name, hit.Msg)
					}
				}
			}
			return true
		})
	}
	// The floor counts every arm of every exhaustive protocol switch in
	// internal/remote: the two that read a reply stream (the client's
	// readLoop, drain's getPage) — dropping an arm of either must shrink
	// this below the bound and fail here even before the lint run does.
	// (26 until the three reply-side switches — the client's lookup, the
	// server's register, DrainVia; 4 + 3 + 3 arms — went: a request's one
	// reply is now checked by proto.Conn.Call, which returns only a type the
	// caller asked for, and TestCallReturnsOnlyWhatWasAskedFor walks every
	// tag through it. 16 until the two serve switches — Server.serve and
	// Directory.serve; 4 + 6 arms — went: they are proto.Serve handlers whose
	// refusing default is the one refusal path, and the remote package's
	// TestServeRefusesWhatNoHandlerTakes walks every tag through both.)
	if mutations < 6 {
		t.Fatalf("expected to mutate every protocol switch arm in internal/remote, only found %d", mutations)
	}
}

// hasDefault reports whether a switch has a default clause.
func hasDefault(sw *ast.SwitchStmt) bool {
	for _, clause := range sw.Body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// TestAnalyzerDocs keeps the -list output usable.
func TestAnalyzerDocs(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, n := range []string{"unitsafety", "simpurity", "lockio", "errdrop",
		"deadlinecheck", "tagswitch", "goloop", "lockorder"} {
		if !names[n] {
			t.Errorf("missing analyzer %q", n)
		}
	}
	if _, err := ByName("unitsafety, errdrop"); err != nil {
		t.Errorf("ByName: %v", err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted an unknown check")
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{Check: "unitsafety", Msg: "example"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	fmt.Println(d)
	// Output: x.go:3:7: [unitsafety] example
}
