// Command oramlint runs the project's static analyzers over module
// packages:
//
//	go run ./cmd/oramlint ./...
//
// Simulation packages are checked for determinism (seed-only
// reproducibility); internal/oram, internal/server, internal/obs and
// internal/cluster run the three analyzers built on the interprocedural
// taint engine: oblivious (secret-dependent branches on paths that reach
// an Access or busOp emit site, and secret-dependent sleeps, early
// exits, trip counts, and parks on a channel operation, select or sync
// wait), scratch ownership (a scratch alias stored outside a tagged
// field, sent on any channel, handed to a goroutine, or returned from
// an exported function), and telemetry (a secret reaching a span,
// event, metric observation or metric name). Taint enters only through
// struct fields tagged `oramlint:"secret"` or `oramlint:"scratch"`.
// Packages outside those sets are skipped.
//
// By default every package is analyzed twice — once under the default
// build context and once with -tags=invariants — so allow directives in
// tag-gated files are checked in the configuration that compiles them,
// and an allow that is load-bearing in only one configuration is not
// reported as stale. Pass -tags to pin a single configuration.
//
// Flags:
//
//	-json         emit findings as a JSON array (includes allow-
//	              suppressed findings with their justifications)
//	-rules a,b    run only the named analyzers (determinism, oblivious,
//	              ownership, telemetry); allows for the rules of the
//	              others go unchecked, and an unknown name exits 2
//	-tags t1,t2   lint a single build configuration with these tags
//
// Exit status: 0 clean, 1 findings, 2 operational error (parse/
// type-check failure, bad pattern).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"stringoram/internal/analysis"
)

// determinismPkgs are the module-relative packages held to seed-only
// reproducibility: everything that executes during a simulation run or
// writes result artifacts.
var determinismPkgs = map[string]bool{
	"internal/obs":         true,
	"internal/oram":        true,
	"internal/sched":       true,
	"internal/dram":        true,
	"internal/sim":         true,
	"internal/experiments": true,
	"internal/rng":         true,
	"internal/trace":       true,
}

// taintPkgs get the analyzers built on the interprocedural taint
// engine: oblivious, ownership and telemetry.
var taintPkgs = []string{"internal/cluster", "internal/obs", "internal/oram", "internal/server"}

// obliviousAnalyzer is shared across packages. Its emit sites are the
// project's bus-event types: oram's Access records (and appends to
// .Accesses) and server's busOp events.
var obliviousAnalyzer = analysis.SecretFlow(
	[]string{"Access", "busOp"},
	[]string{"Accesses"},
)

var ownershipAnalyzer = analysis.Ownership()

// telemetryAnalyzer guards the observability plane: no secret-tagged
// value may reach a span payload, recorder event, metric observation,
// or metric name — telemetry leaves the box on every scrape.
var telemetryAnalyzer = analysis.Telemetry()

// allAnalyzers is every analyzer -rules can name, in report order.
var allAnalyzers = []*analysis.Analyzer{analysis.Determinism, obliviousAnalyzer, ownershipAnalyzer, telemetryAnalyzer}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// analyzersFor returns the analyzers that apply to one module-relative
// package path, filtered by the -rules selection (nil selection = all);
// an empty slice means the package is not checked.
func analyzersFor(rel string, rules map[string]bool) []*analysis.Analyzer {
	var as []*analysis.Analyzer
	for _, a := range allAnalyzers {
		applies := slices.Contains(taintPkgs, rel)
		if a == analysis.Determinism {
			applies = determinismPkgs[rel]
		}
		if applies && (rules == nil || rules[a.Name]) {
			as = append(as, a)
		}
	}
	return as
}

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Allowed bool   `json:"allowed"`
	Reason  string `json:"reason,omitempty"`
}

// findingKey identifies one finding across build configurations.
type findingKey struct {
	file      string
	line, col int
	rule, msg string
}

func keyOf(f analysis.Finding) findingKey {
	return findingKey{file: f.Pos.Filename, line: f.Pos.Line, col: f.Pos.Column, rule: f.Rule, msg: f.Msg}
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oramlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (includes allow-suppressed findings)")
	rulesFlag := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	tagsFlag := fs.String("tags", "", "build tags for a single lint configuration (default: lint both the default and the invariants configurations)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var rules map[string]bool
	if *rulesFlag != "" {
		rules = make(map[string]bool)
		var names []string
		for _, a := range allAnalyzers {
			names = append(names, a.Name)
		}
		for _, r := range strings.Split(*rulesFlag, ",") {
			if r = strings.TrimSpace(r); !slices.Contains(names, r) {
				fmt.Fprintf(errOut, "oramlint: unknown analyzer %q in -rules (valid: %s)\n", r, strings.Join(names, ", "))
				return 2
			}
			rules[r] = true
		}
	}
	configs := [][]string{nil, {"invariants"}}
	if *tagsFlag != "" {
		configs = [][]string{strings.Split(*tagsFlag, ",")}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errOut, "oramlint:", err)
		return 2
	}
	dirs, err := analysis.ExpandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(errOut, "oramlint:", err)
		return 2
	}

	// Run every configuration, then merge: a finding reported in any
	// configuration stands (preferring the un-allowed instance); a stale
	// allow stands only if it is stale in every configuration that
	// compiled its file, so allows matching tag-gated findings are not
	// false-flagged.
	merged := make(map[findingKey]analysis.Finding)
	staleSeen := make(map[findingKey]int)
	fileSeen := make(map[string]int)
	for _, tags := range configs {
		findings, files, err := runConfig(cwd, dirs, rules, tags)
		if err != nil {
			fmt.Fprintln(errOut, "oramlint:", err)
			return 2
		}
		for f := range files {
			fileSeen[f]++
		}
		for _, f := range findings {
			k := keyOf(f)
			if f.Rule == "allow" && strings.Contains(f.Msg, "stale escape") {
				staleSeen[k]++
				merged[k] = f
				continue
			}
			if old, ok := merged[k]; !ok || (old.Allowed && !f.Allowed) {
				merged[k] = f
			}
		}
	}
	for k, n := range staleSeen {
		if n < fileSeen[k.file] {
			delete(merged, k)
		}
	}

	all := make([]analysis.Finding, 0, len(merged))
	for _, f := range merged {
		all = append(all, f)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Rule < all[j].Rule
	})

	live := 0
	for _, f := range all {
		if !f.Allowed {
			live++
		}
	}
	if *jsonOut {
		js := make([]jsonFinding, 0, len(all))
		for _, f := range all {
			js = append(js, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
				Rule: f.Rule, Message: f.Msg, Allowed: f.Allowed, Reason: f.Reason,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(js); err != nil {
			fmt.Fprintln(errOut, "oramlint:", err)
			return 2
		}
	} else {
		for _, f := range all {
			if !f.Allowed {
				fmt.Fprintln(out, f)
			}
		}
	}
	if live > 0 {
		fmt.Fprintf(errOut, "oramlint: %d finding(s)\n", live)
		return 1
	}
	return 0
}

// runConfig lints one build configuration: load every checked package
// (and, transitively, its module-internal dependencies), build the
// whole-program view, and run each package's analyzers against it.
// files reports which source files this configuration compiled, for the
// cross-configuration stale-allow merge.
func runConfig(cwd string, dirs []string, rules map[string]bool, tags []string) ([]analysis.Finding, map[string]bool, error) {
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		return nil, nil, err
	}
	loader.SetBuildTags(tags)

	type target struct {
		pkg             *analysis.Package
		analyzers, idle []*analysis.Analyzer
	}
	var targets []target
	taintTarget := false
	for _, dir := range dirs {
		rel, err := filepath.Rel(loader.ModuleDir, dir)
		if err != nil {
			return nil, nil, err
		}
		rel = filepath.ToSlash(rel)
		analyzers := analyzersFor(rel, rules)
		if len(analyzers) == 0 {
			continue
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		// Applicable analyzers left out by -rules: their allows go unchecked.
		idle := slices.DeleteFunc(analyzersFor(rel, nil), func(a *analysis.Analyzer) bool { return slices.Contains(analyzers, a) })
		targets = append(targets, target{pkg: pkg, analyzers: analyzers, idle: idle})
		taintTarget = taintTarget || slices.ContainsFunc(analyzers, func(a *analysis.Analyzer) bool { return a != analysis.Determinism })
	}
	// The taint engine pushes argument taint down from every call site,
	// so a target a taint analyzer runs on brings in every taint
	// package: its findings must not depend on which of them the
	// patterns named. Callers outside taintPkgs join only when named.
	if taintTarget {
		for _, rel := range taintPkgs {
			if _, err := loader.LoadDir(filepath.Join(loader.ModuleDir, rel)); err != nil {
				return nil, nil, err
			}
		}
	}

	prog := analysis.NewProgram(loader.Packages())
	var all []analysis.Finding
	files := make(map[string]bool)
	for _, t := range targets {
		for _, f := range t.pkg.Files {
			files[t.pkg.Fset.Position(f.Pos()).Filename] = true
		}
		findings, err := analysis.Run(prog, t.pkg, t.analyzers, t.idle)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, findings...)
	}
	return all, files, nil
}
