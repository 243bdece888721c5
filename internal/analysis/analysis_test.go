package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: type-checking standard
// library packages from source is the expensive part, and the Loader
// caches packages by path.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches expectation markers: `// want rule1 rule2` at end of
// line. Each listed rule must produce at least one finding on that
// line, and every finding must land on a marked line with its rule.
var wantRe = regexp.MustCompile(`// want((?: [a-z-]+)+)\s*$`)

type expectation struct {
	file string
	line int
	rule string
}

func scanWants(t *testing.T, pkg *Package) map[expectation]bool {
	t.Helper()
	wants := make(map[expectation]bool)
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				wants[expectation{file: name, line: line, rule: rule}] = false
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		fh.Close()
	}
	return wants
}

// checkFixture runs the analyzers over a fixture package and diffs the
// findings against the package's want markers. Every finding's rule must
// be listed in its analyzer's Rules, which the allow contract relies on.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := fixture(t, name)
	findings, err := Run(nil, pkg, analyzers, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		if f.Rule != "allow" && !slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return slices.Contains(a.Rules, f.Rule) }) {
			t.Errorf("rule %s is in no analyzer's Rules: %s", f.Rule, f)
		}
	}
	diffFindings(t, pkg, findings)
}

// diffFindings compares analyzer output (minus allow-suppressed
// findings) against the package's want markers.
func diffFindings(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	wants := scanWants(t, pkg)
	for _, f := range findings {
		if f.Allowed {
			continue
		}
		key := expectation{file: f.Pos.Filename, line: f.Pos.Line, rule: f.Rule}
		if _, ok := wants[key]; !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[key] = true
	}
	for key, hit := range wants {
		if !hit {
			t.Errorf("missing finding: %s:%d: [%s]", key.file, key.line, key.rule)
		}
	}
}

func TestDeterminismPositive(t *testing.T) {
	checkFixture(t, "detpos", []*Analyzer{Determinism})
}

func TestDeterminismNegative(t *testing.T) {
	checkFixture(t, "detneg", []*Analyzer{Determinism})
}

func TestObliviousPositive(t *testing.T) {
	checkFixture(t, "oblpos", []*Analyzer{SecretFlow([]string{"Access"}, []string{"Accesses"})})
}

// TestSecretBranchNamesSecret pins that a secret-branch finding names
// what it found: the secret field, the secret-reading callee, or else
// the tainted value.
func TestSecretBranchNamesSecret(t *testing.T) {
	pkg := fixture(t, "oblpos")
	findings, err := Run(nil, pkg, []*Analyzer{SecretFlow([]string{"Access"}, []string{"Accesses"})}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Keyed by the source text of the flagged line.
	cases := map[string]string{
		"if b.Slots[i].Real {": "if condition reads secret field Real ",
		"if r.isReal(b, i) {":  "if condition calls isReal, which reads secret state ",
		"if real {":            "if condition depends on secret state ",
	}
	lines := map[string][]string{}
	for _, f := range findings {
		if f.Rule != "secret-branch" {
			continue
		}
		src, err := os.ReadFile(f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.TrimSpace(strings.Split(string(src), "\n")[f.Pos.Line-1])
		text, _, _ = strings.Cut(text, " //")
		lines[text] = append(lines[text], f.Msg)
	}
	for text, want := range cases {
		msgs := lines[text]
		if len(msgs) != 1 || !strings.HasPrefix(msgs[0], want) {
			t.Errorf("%q: messages %q, want one starting %q", text, msgs, want)
		}
	}
}

func TestObliviousNegative(t *testing.T) {
	checkFixture(t, "oblneg", []*Analyzer{SecretFlow([]string{"Access"}, []string{"Accesses"})})
}

func TestAllowContract(t *testing.T) {
	checkFixture(t, "allowcase", []*Analyzer{Determinism})
}

func TestTimingPositive(t *testing.T) {
	checkFixture(t, "timingpos", []*Analyzer{SecretFlow([]string{"Access"}, []string{"Accesses"})})
}

func TestTimingNegative(t *testing.T) {
	checkFixture(t, "timingneg", []*Analyzer{SecretFlow([]string{"Access"}, []string{"Accesses"})})
}

func TestTelemetryPositive(t *testing.T) {
	checkFixture(t, "telpos", []*Analyzer{Telemetry()})
}

func TestTelemetryNegative(t *testing.T) {
	checkFixture(t, "telneg", []*Analyzer{Telemetry()})
}

func TestOwnershipPositive(t *testing.T) {
	checkFixture(t, "ownpos", []*Analyzer{Ownership()})
}

func TestOwnershipNegative(t *testing.T) {
	checkFixture(t, "ownneg", []*Analyzer{Ownership()})
}

// TestCrossPackageTaint proves summaries cross package boundaries: the
// app fixture leaks scratch and guards a park on secrets it can only
// see through the lib fixture's accessors.
func TestCrossPackageTaint(t *testing.T) {
	app := fixture(t, "xtaint/app")
	lib, err := loader.Load(loader.ModulePath + "/internal/analysis/testdata/xtaint/lib")
	if err != nil {
		t.Fatalf("loading lib fixture: %v", err)
	}
	prog := NewProgram([]*Package{app, lib})
	findings, err := Run(prog, app, []*Analyzer{
		Ownership(),
		SecretFlow(nil, nil),
	}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	diffFindings(t, app, findings)
}

func TestMalformedAllow(t *testing.T) {
	pkg := fixture(t, "allowbad")
	findings, err := Run(nil, pkg, []*Analyzer{Determinism}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1: %v", len(findings), findings)
	}
	if findings[0].Rule != "allow" || !strings.Contains(findings[0].Msg, "malformed") {
		t.Fatalf("unexpected finding: %s", findings[0])
	}
}
