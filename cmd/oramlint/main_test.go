package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzersFor(t *testing.T) {
	cases := []struct {
		rel  string
		want []string
	}{
		{"internal/oram", []string{"determinism", "oblivious", "ownership", "telemetry"}},
		{"internal/server", []string{"oblivious", "ownership", "telemetry"}},
		{"internal/obs", []string{"determinism", "oblivious", "ownership", "telemetry"}},
		{"internal/cluster", []string{"oblivious", "ownership", "telemetry"}},
		{"internal/sched", []string{"determinism"}},
		{"internal/sim", []string{"determinism"}},
		{"internal/dram", []string{"determinism"}},
		{"internal/experiments", []string{"determinism"}},
		{"internal/rng", []string{"determinism"}},
		{"internal/trace", []string{"determinism"}},
		{"internal/config", nil},
		{"internal/invariant", nil},
		{"internal/analysis", nil},
		{"cmd/oramlint", nil},
		{"cmd/stringoram", nil},
	}
	for _, c := range cases {
		got := analyzersFor(c.rel, nil)
		if len(got) != len(c.want) {
			t.Errorf("analyzersFor(%q) = %d analyzers, want %d", c.rel, len(got), len(c.want))
			continue
		}
		for i, a := range got {
			if a.Name != c.want[i] {
				t.Errorf("analyzersFor(%q)[%d] = %s, want %s", c.rel, i, a.Name, c.want[i])
			}
		}
	}
}

// TestAnalyzersForRules: the -rules selection filters the analyzer set.
func TestAnalyzersForRules(t *testing.T) {
	got := analyzersFor("internal/oram", map[string]bool{"oblivious": true})
	if len(got) != 1 || got[0].Name != "oblivious" {
		t.Fatalf("rules filter: got %d analyzers, want exactly [oblivious]", len(got))
	}
	if got := analyzersFor("internal/rng", map[string]bool{"oblivious": true}); len(got) != 0 {
		t.Fatalf("rules filter: internal/rng should have no oblivious analyzer, got %d", len(got))
	}
}

// TestRunRulesSubset runs the README's -rules example: allows for the
// rules of the analyzers left out are not stale, so a clean package
// stays clean under any selection.
func TestRunRulesSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-rules", "oblivious", "../../internal/oram"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestRunUnknownRules: a -rules name that is no analyzer (including the
// retired "timing") is an operational error naming the valid ones, not
// a silent clean run.
func TestRunUnknownRules(t *testing.T) {
	for _, name := range []string{"nosuchrule", "timing", "determinism,timing"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-rules", name, "../../internal/rng"}, &out, &errOut); code != 2 {
			t.Errorf("-rules %s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errOut.String(), "determinism, oblivious, ownership, telemetry") {
			t.Errorf("-rules %s: stderr %q does not list the valid analyzers", name, errOut.String())
		}
	}
}

// TestRunSkipsUncheckedPackages: a pattern matching only packages
// outside the checked sets exits 0 without loading anything.
func TestRunSkipsUncheckedPackages(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"../../internal/invariant"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output: %q", out.String())
	}
}

// TestRunCheckedPackage runs a real simulation package through the
// driver; internal/rng is small and must stay clean (it exists to wrap
// seeded randomness).
func TestRunCheckedPackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"../../internal/rng"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestRunJSON: -json over a clean package emits a well-formed array (the
// allow-suppressed findings of the package, if any, each carrying a
// non-empty justification).
func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "../../internal/rng"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Rule == "" {
			t.Errorf("finding missing location/rule: %+v", f)
		}
		if !f.Allowed {
			t.Errorf("clean package reported a live finding: %+v", f)
		}
		if f.Allowed && f.Reason == "" {
			t.Errorf("allowed finding without justification: %+v", f)
		}
	}
}

// maxTelemetryAllows is the ceiling on secret-telemetry allows in the
// module outside internal/analysis (whose fixtures exercise the rule).
// It only ever goes down: a new telemetry sink of secret state is
// removed, not allowed.
const maxTelemetryAllows = 1

// TestSecretTelemetryAllowRatchet counts the module's
// //oramlint:allow secret-telemetry directives, read as comments.
func TestSecretTelemetryAllowRatchet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			if path == filepath.Join(root, "internal", "analysis") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//oramlint:allow ")
				if ok && strings.HasPrefix(rest, "secret-telemetry ") {
					found = append(found, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > maxTelemetryAllows {
		t.Fatalf("%d secret-telemetry allows, ceiling %d:\n%s", len(found), maxTelemetryAllows, strings.Join(found, "\n"))
	}
}
