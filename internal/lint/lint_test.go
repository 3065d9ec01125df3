package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"eds/internal/lint"
	"eds/internal/lint/analysis"
	"eds/internal/lint/analysistest"
	"eds/internal/lint/checker"
	"eds/internal/lint/loader"
)

func moduleDir(t *testing.T) string {
	t.Helper()
	dir, err := loader.ModuleDir(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	return dir
}

func fixture(mod, name string) string {
	return filepath.Join(mod, "internal", "lint", "testdata", "src", name)
}

// runFixture applies one analyzer to its fixture package and demands at
// least one caught violation: a fixture that stops reporting means the
// analyzer has gone blind, not that the repo got cleaner.
func runFixture(t *testing.T, a *analysis.Analyzer, name string) {
	t.Helper()
	mod := moduleDir(t)
	findings := analysistest.Run(t, mod, fixture(mod, name), a)
	if len(findings) == 0 {
		t.Fatalf("%s reported nothing on its violation fixture", a.Name)
	}
}

func TestAlgDeterminism(t *testing.T) { runFixture(t, lint.AlgDeterminism, "algdet") }
func TestOutboxAlias(t *testing.T)    { runFixture(t, lint.OutboxAlias, "outboxalias") }
func TestArenaAlias(t *testing.T)     { runFixture(t, lint.ArenaAlias, "arenaalias") }
func TestRoundCtx(t *testing.T)       { runFixture(t, lint.RoundCtx, "roundctx") }

// TestSuppression checks the //lint:ignore mechanism end to end: the
// justified violation stays silent, the bare one is reported.
func TestSuppression(t *testing.T) {
	mod := moduleDir(t)
	findings := analysistest.Run(t, mod, fixture(mod, "suppress"), lint.RoundCtx)
	if len(findings) != 1 {
		t.Fatalf("want exactly the unsuppressed finding, got %d: %v", len(findings), findings)
	}
}

// TestAnalyzerMetadata pins the suite's shape: unique names (they are
// the suppression keys) and non-empty docs (they are the -list output).
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Errorf("want the 4 edsvet analyzers, got %d", len(seen))
	}
}

// TestRepoClean is the meta-test behind the CI gate: the full suite
// over every package of this module — test files included — must come
// back empty, so any new finding fails the build until it is fixed or
// carries a justified //lint:ignore.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	mod := moduleDir(t)
	pkgs, err := loader.LoadTests(mod, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d): loader lost coverage", len(pkgs))
	}
	// The point of LoadTests is that _test.go files are in scope: the
	// sim package must come back with its test files merged in, and its
	// external test package must be a unit of its own. Silent fallback
	// to sources-only would pass the clean check while linting nothing
	// new.
	var simHasTests, simExternal bool
	for _, pkg := range pkgs {
		switch pkg.ImportPath {
		case "eds/internal/sim":
			for _, f := range pkg.Files {
				name := pkg.Fset.Position(f.Pos()).Filename
				if strings.HasSuffix(name, "_test.go") {
					simHasTests = true
				}
			}
		case "eds/internal/sim_test":
			simExternal = true
		}
	}
	if !simHasTests {
		t.Errorf("eds/internal/sim loaded without its in-package test files")
	}
	if !simExternal {
		t.Errorf("external test package eds/internal/sim_test not loaded")
	}
	findings, err := checker.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("edsvet finding on clean repo: %s", f)
	}
}
