package lint

// A miniature analysistest: fixture packages under testdata/src/<name>
// carry `// want `regexp`` comments on the lines an analyzer must flag;
// runFixture loads the package tree (subdirectories become importable
// fixture sub-packages, so interprocedural analyzers can be exercised
// across package boundaries), runs the analyzer with its production
// package/file scope bypassed (annotation suppression still applies),
// and fails on any missed want or unexpected diagnostic.

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// wantRe matches one expectation: a backtick- or double-quoted regexp
// after the `want` marker.
var wantRe = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				pat := m[1][1 : len(m[1])-1]
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collect wants: %v", err)
	}
	return wants
}

// runFixture checks one analyzer (or a co-running set, for analyzers
// that depend on each other's bookkeeping, like unusedallow) against the
// fixture tree named after the first analyzer.
func runFixture(t *testing.T, azs ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", azs[0].Name)
	pkgs, err := sharedLoader(t).LoadFixtureTree(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags := checkAll(pkgs, azs, false)
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations", dir)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.line != d.Pos.Line || filepath.Base(w.file) != filepath.Base(d.Pos.Filename) {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestNoDetermFixture(t *testing.T)      { runFixture(t, NoDeterm) }
func TestRNGDisciplineFixture(t *testing.T) { runFixture(t, RNGDiscipline) }
func TestSortedEmitFixture(t *testing.T)    { runFixture(t, SortedEmit) }
func TestFloatEqFixture(t *testing.T)       { runFixture(t, FloatEq) }
func TestDeterTaintFixture(t *testing.T)    { runFixture(t, DeterTaint) }
func TestCtxFlowFixture(t *testing.T)       { runFixture(t, CtxFlow) }
func TestDeferCloseFixture(t *testing.T)    { runFixture(t, DeferClose) }
func TestLockOrderFixture(t *testing.T)     { runFixture(t, LockOrder) }
func TestLockedFieldFixture(t *testing.T)   { runFixture(t, LockedField) }
func TestGoLeakFixture(t *testing.T)        { runFixture(t, GoLeak) }
func TestHotPathAllocFixture(t *testing.T)  { runFixture(t, HotPathAlloc) }
func TestErrFlowFixture(t *testing.T)       { runFixture(t, ErrFlow) }
func TestUnitCheckFixture(t *testing.T)     { runFixture(t, UnitCheck) }
func TestDivZeroFixture(t *testing.T)       { runFixture(t, DivZero) }
func TestNaNSourceFixture(t *testing.T)     { runFixture(t, NaNSource) }

// unusedallow consumes the other analyzers' suppression bookkeeping, so
// its fixture co-runs floateq: one allow in the fixture suppresses a real
// floateq finding (used), one suppresses nothing (stale, flagged).
func TestUnusedAllowFixture(t *testing.T) { runFixture(t, UnusedAllow, FloatEq) }

// TestTreeClean is the in-test twin of `harmony-lint ./...`: the whole
// module must be free of findings (modulo annotations), so a reverted fix
// or a new violation fails `go test` as well as the lint CI job.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, d := range Check(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestScopes pins each analyzer's production scope: deterministic
// packages are covered, annex packages are not.
func TestScopes(t *testing.T) {
	cases := []struct {
		az      *Analyzer
		pkg     string
		applies bool
	}{
		{NoDeterm, "harmony/internal/sim", true},
		{NoDeterm, "harmony/internal/daemon", true},
		{NoDeterm, "harmony/cmd/harmonyd", true},
		{NoDeterm, "harmony/internal/forecast", true},
		{NoDeterm, "harmony/internal/classify", true},
		{NoDeterm, "harmony/internal/kmeans", true},
		{NoDeterm, "harmony/internal/trace", true},
		{RNGDiscipline, "harmony/internal/stats", false},
		{RNGDiscipline, "harmony/internal/trace", true},
		{DeferClose, "harmony/internal/daemon", true},
		{DeferClose, "harmony/internal/metrics", true},
		{DeferClose, "harmony/cmd/harmonyd", true},
		{DeferClose, "harmony/internal/stats", false},
	}
	for _, c := range cases {
		if got := c.az.Packages(c.pkg); got != c.applies {
			t.Errorf("%s.Packages(%q) = %v, want %v", c.az.Name, c.pkg, got, c.applies)
		}
	}
	if !DeferClose.Packages("harmony/internal/fanout") || !DeferClose.Files("harmony/internal/fanout", "/x/fanout.go") {
		t.Error("deferclose should cover internal/fanout/fanout.go")
	}
	if DeferClose.Packages("harmony/internal/sim") || DeferClose.Packages("harmony/internal/core") {
		t.Error("deferclose should not cover sim or core: their fan-outs go through internal/fanout")
	}
	// Module analyzers scope themselves.
	for _, c := range []struct {
		pkg, file string
		applies   bool
	}{
		{"harmony/internal/daemon", "/x/engine.go", true},
		{"harmony", "/x/parallel.go", true},
		{"harmony", "/x/harmony.go", false},
		{"harmony/internal/fanout", "/x/fanout.go", true},
		{"harmony/internal/sim", "/x/parallel.go", false},
		{"harmony/internal/sim", "/x/sim.go", false},
		{"harmony/internal/core", "/x/placement.go", false},
		{"harmony/internal/core", "/x/relax.go", false},
		{"harmony/internal/stats", "/x/rng.go", false},
	} {
		if got := goleakCovered(c.pkg, c.file); got != c.applies {
			t.Errorf("goleakCovered(%q, %q) = %v, want %v", c.pkg, c.file, got, c.applies)
		}
	}
	if !detertaintDeterministic("harmony/internal/sched") || detertaintDeterministic("harmony/internal/stats") {
		t.Error("detertaint deterministic-package scope wrong")
	}
	// The flow-sensitive analyzers inherit goleak's concurrent-surface
	// scope (plus metrics for the lock-centric ones) and their own
	// fixture trees — but never other analyzers' fixtures.
	if !ctxflowCovered("harmony/internal/tenant", "/x/server.go") ||
		!ctxflowCovered("fixture/ctxflow", "/x/a.go") ||
		ctxflowCovered("fixture/goleak", "/x/a.go") {
		t.Error("ctxflow scope wrong")
	}
	if !lockorderCovered("harmony/internal/metrics", "/x/metrics.go") ||
		!lockorderCovered("fixture/lockorder", "/x/a.go") ||
		lockorderCovered("fixture/goleak", "/x/a.go") ||
		lockorderCovered("harmony/internal/stats", "/x/rng.go") {
		t.Error("lockorder scope wrong")
	}
	if !lockedfieldCovered("harmony/internal/metrics") ||
		!lockedfieldCovered("fixture/lockedfield") ||
		lockedfieldCovered("harmony/internal/core") {
		t.Error("lockedfield scope wrong")
	}
	// The value-flow analyzers share the annotated numeric surface (the
	// energy→cost and demand chains) plus their own fixture trees;
	// unitcheck additionally collects (but does not check) daemon's
	// config annotations.
	for _, pkg := range []string{
		"harmony/internal/energy", "harmony/internal/tenant",
		"harmony/internal/core", "harmony/internal/queueing",
		"harmony/internal/forecast", "harmony/internal/sched",
		"harmony/internal/trace",
	} {
		if !unitcheckCovered(pkg) || !divzeroCovered(pkg) || !nansourceCovered(pkg) {
			t.Errorf("value-flow analyzers should cover %s", pkg)
		}
	}
	if !unitcheckCovered("fixture/unitcheck") || unitcheckCovered("fixture/divzero") ||
		unitcheckCovered("harmony/internal/daemon") || unitcheckCovered("harmony/internal/stats") {
		t.Error("unitcheck scope wrong")
	}
	if !unitAnnotCovered("harmony/internal/daemon") || unitAnnotCovered("harmony/internal/stats") {
		t.Error("unitcheck annotation-collection scope wrong")
	}
	if !divzeroCovered("fixture/divzero") || divzeroCovered("fixture/unitcheck") ||
		divzeroCovered("harmony/internal/lp") {
		t.Error("divzero scope wrong")
	}
	if !nansourceCovered("fixture/nansource") || nansourceCovered("fixture/divzero") ||
		nansourceCovered("harmony/internal/stats") {
		t.Error("nansource scope wrong")
	}
}

func TestByName(t *testing.T) {
	azs, err := ByName([]string{"floateq", "nodeterm", "detertaint"})
	if err != nil || len(azs) != 3 {
		t.Fatalf("ByName: %v %v", azs, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	names := map[string]bool{}
	for _, az := range All() {
		if az.Name == "" || az.Doc == "" {
			t.Errorf("analyzer %+v incomplete", az)
		}
		if az.Run == nil && az.RunModule == nil && az != UnusedAllow {
			t.Errorf("analyzer %s has neither Run nor RunModule", az.Name)
		}
		if az.Run != nil && az.RunModule != nil {
			t.Errorf("analyzer %s has both Run and RunModule", az.Name)
		}
		if names[az.Name] {
			t.Errorf("duplicate analyzer name %s", az.Name)
		}
		names[az.Name] = true
	}
}

// TestAllowGrammar pins the annotation grammar: an annotation binds to
// its own line, the line below, and — through a contiguous comment block
// — the first code line after the block; mismatched analyzer names never
// match, and consultation marks the annotation used.
func TestAllowGrammar(t *testing.T) {
	ann := &allowAnn{analyzer: "floateq", pos: token.Position{Filename: "f.go", Line: 10}}
	set := &allowSet{byLine: map[string]map[int][]*allowAnn{}, anns: []*allowAnn{ann}}
	set.bind(ann, 10)
	set.bind(ann, 11)
	for _, c := range []struct {
		line int
		name string
		want bool
	}{
		{10, "floateq", true},  // same line
		{11, "floateq", true},  // line below the comment
		{12, "floateq", false}, // too far
		{10, "nodeterm", false},
	} {
		pos := token.Position{Filename: "f.go", Line: c.line}
		if got := set.allows(c.name, pos); got != c.want {
			t.Errorf("allows(%s, line %d) = %v, want %v", c.name, c.line, got, c.want)
		}
	}
	if !ann.used {
		t.Error("matching consultation should mark the annotation used")
	}
}
