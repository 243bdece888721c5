// Package analysis is a small, dependency-free static-analysis
// framework (go/parser + go/ast + go/types only; no x/tools) carrying
// the project-specific analyzers behind cmd/oramlint:
//
//   - determinism: simulation packages must stay bit-reproducible from
//     the seed alone — no wall-clock reads, no global math/rand, no
//     goroutines, no select-with-default, and no order-sensitive
//     iteration over maps (the classic silent-golden-drift source).
//   - oblivious: control flow and timing in functions that can reach an
//     address-emitting site must not depend on secret state (real-vs-
//     dummy identity, stash contents, position-map values) without an
//     explicit, justified escape comment. Secrets are followed through
//     locals and across packages by the interprocedural taint engine.
//   - ownership: scratch-aliasing values must not outlive the access
//     that borrowed them.
//   - telemetry: secret-derived values must not reach spans, events or
//     metrics.
//
// Escape hatch: a finding can be silenced with
//
//	//oramlint:allow <rule> <reason>
//
// placed on the offending line or on the line(s) directly above it.
// Allows are verified to be load-bearing: an allow whose rule matches
// no finding on its target line is itself reported as an error, so
// stale annotations cannot rot in place.
package analysis

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic. Findings silenced by a matching
// //oramlint:allow are still returned — with Allowed set and the
// justification in Reason — so machine consumers (-json) can see the
// full picture; text output and exit codes skip them.
type Finding struct {
	Pos     token.Position
	Rule    string // short rule id, e.g. "maprange", "secret-branch"
	Msg     string
	Allowed bool   // suppressed by a load-bearing allow directive
	Reason  string // the allow's justification, when Allowed
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Pass carries one package through one analyzer. Prog is the whole-
// module view for interprocedural analyzers; it is nil when running
// through the single-package entry point.
type Pass struct {
	Pkg      *Package
	Prog     *Program
	findings []Finding
}

// program returns the whole-module view, building a one-package view on
// first use when the pass was given none.
func (p *Pass) program() *Program {
	if p.Prog == nil {
		p.Prog = NewProgram([]*Package{p.Pkg})
	}
	return p.Prog
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, rule, msg string) {
	p.findings = append(p.findings, Finding{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: rule,
		Msg:  msg,
	})
}

// Analyzer is one checker. Run inspects the package and reports
// findings through the pass; Rules lists every rule id it can report.
type Analyzer struct {
	Name  string
	Doc   string
	Rules []string
	Run   func(*Pass) error
}

// allowDirective is one parsed //oramlint:allow comment.
type allowDirective struct {
	pos    token.Position
	rule   string
	reason string
	// target is the source line the allow applies to: its own line for
	// trailing comments, otherwise the first following line that is not
	// itself an allow comment (so stacked allows share one target).
	target int
	used   bool
}

const allowPrefix = "//oramlint:allow"

// collectAllows extracts the allow directives of one package, resolving
// each to its target line.
func collectAllows(pkg *Package) ([]*allowDirective, []Finding) {
	var allows []*allowDirective
	var errs []Finding
	for _, f := range pkg.Files {
		// Gather this file's directive lines first so stacked allows can
		// skip over one another when resolving targets.
		lines := make(map[int]*allowDirective)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if rule == "" || reason == "" {
					errs = append(errs, Finding{Pos: pos, Rule: "allow",
						Msg: "malformed allow: want //oramlint:allow <rule> <reason>"})
					continue
				}
				d := &allowDirective{pos: pos, rule: rule, reason: reason}
				lines[pos.Line] = d
				allows = append(allows, d)
			}
		}
		for line, d := range lines {
			// A trailing comment never starts the line in column 1..n of
			// real code; distinguishing trailing from standalone by
			// column is brittle, so allow BOTH the directive's own line
			// and the next non-directive line as targets, preferring the
			// own line at match time via the target field.
			t := line + 1
			for lines[t] != nil {
				t++
			}
			d.target = t
		}
	}
	return allows, errs
}

// Run runs the given analyzers over one package, applies the
// allow-comment contract, and returns all findings: unsuppressed ones,
// suppressed ones (Allowed=true, with the justification), and malformed
// or non-load-bearing allows reported as findings of rule "allow". prog
// is the whole-program view the interprocedural analyzers use; nil
// limits them to the package itself. idle lists analyzers that apply to
// the package but were not selected: no run vouches for the allows of
// their rules, so those are not reported stale.
func Run(prog *Program, pkg *Package, analyzers, idle []*Analyzer) ([]Finding, error) {
	pass := &Pass{Pkg: pkg, Prog: prog}
	for _, a := range analyzers {
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	allows, allowErrs := collectAllows(pkg)

	var kept []Finding
	for _, f := range pass.findings {
		for _, d := range allows {
			if d.rule != f.Rule || d.pos.Filename != f.Pos.Filename {
				continue
			}
			if d.pos.Line == f.Pos.Line || d.target == f.Pos.Line {
				d.used = true
				f.Allowed = true
				f.Reason = d.reason
			}
		}
		kept = append(kept, f)
	}
	for _, d := range allows {
		if !d.used && !slices.ContainsFunc(idle, func(a *Analyzer) bool { return slices.Contains(a.Rules, d.rule) }) {
			kept = append(kept, Finding{Pos: d.pos, Rule: "allow",
				Msg: fmt.Sprintf("allow for rule %q matches no finding on line %d (stale escape; remove it)", d.rule, d.target)})
		}
	}
	kept = append(kept, allowErrs...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}
