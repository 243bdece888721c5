package analysis

import (
	"go/ast"
	"go/types"
)

// Oblivious flags secret-dependent control flow in functions that can
// reach an address-emitting site. A function "emits addresses" when it
// constructs a physical-access record (a composite literal of one of
// emitTypes) or appends to an emitField; reachability is the transitive
// closure over package-internal calls. Within that closure, any
// if/switch/for condition (including init statements) that reads a
// field tagged `oramlint:"secret"` — or calls a package function whose
// body transitively reads one — is reported under rule "secret-branch".
//
// The check is intentionally syntactic about dataflow: assigning a
// secret-derived value to a local and branching on the local later is
// not tracked. Keep secret reads inline in the condition (the package's
// prevailing style) so the analyzer sees them.
func Oblivious(emitTypes []string, emitFields []string) *Analyzer {
	return &Analyzer{
		Name: "oblivious",
		Doc:  "flags secret-dependent branches in address-emitting code paths",
		Run: func(pass *Pass) error {
			runOblivious(pass, emitTypes, emitFields)
			return nil
		},
	}
}

// DefaultOblivious is the project instantiation: oram.Access composite
// literals and appends to .Accesses are the address-emitting sites.
var DefaultOblivious = Oblivious([]string{"Access"}, []string{"Accesses"})

// funcFacts is the per-function summary the fixpoints run over.
type funcFacts struct {
	decl        *ast.FuncDecl
	callees     map[*types.Func]bool
	readsSecret bool // body reads a secret-tagged field directly
	emits       bool // body constructs an address record directly
}

func runOblivious(pass *Pass, emitTypes, emitFields []string) {
	info := pass.Pkg.Info
	emitType := make(map[string]bool, len(emitTypes))
	for _, t := range emitTypes {
		emitType[t] = true
	}
	emitField := make(map[string]bool, len(emitFields))
	for _, f := range emitFields {
		emitField[f] = true
	}

	// Pass 1: summarize every function declaration.
	facts := make(map[*types.Func]*funcFacts)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := &funcFacts{decl: fd, callees: make(map[*types.Func]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if isSecretField(info, n) {
						ff.readsSecret = true
					}
				case *ast.CompositeLit:
					if t := info.TypeOf(n); t != nil {
						if named, ok := t.(*types.Named); ok &&
							named.Obj().Pkg() == pass.Pkg.Types && emitType[named.Obj().Name()] {
							ff.emits = true
						}
					}
				case *ast.CallExpr:
					if callee := calleeOf(info, n); callee != nil && callee.Pkg() == pass.Pkg.Types {
						ff.callees[callee] = true
					}
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
						if sel, ok := n.Args[0].(*ast.SelectorExpr); ok && emitField[sel.Sel.Name] {
							ff.emits = true
						}
					}
				}
				return true
			})
			facts[fn] = ff
		}
	}

	// Pass 2: fixpoints for "transitively reads secrets" and "can reach
	// an address-emitting site".
	secretReading := closure(facts, func(ff *funcFacts) bool { return ff.readsSecret })
	addressRelevant := closure(facts, func(ff *funcFacts) bool { return ff.emits })

	// Pass 3: inspect branch conditions of address-relevant functions.
	for fn, ff := range facts {
		if !addressRelevant[fn] {
			continue
		}
		check := func(kind string, nodes ...ast.Node) {
			for _, n := range nodes {
				if n == nil {
					continue
				}
				reportSecretUse(pass, info, n, kind, secretReading)
			}
		}
		ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				check("if", n.Init, n.Cond)
			case *ast.SwitchStmt:
				check("switch", n.Init, n.Tag)
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						for _, e := range cc.List {
							check("switch case", e)
						}
					}
				}
			case *ast.ForStmt:
				check("for", n.Cond)
			case *ast.RangeStmt:
				// Iterating a secret collection makes the trip count —
				// and so the emitted sequence length — secret-dependent.
				check("range", n.X)
			}
			return true
		})
	}
}

// closure computes the set of functions for which seed holds or that
// can reach (via package-internal calls) a function for which it holds.
func closure(facts map[*types.Func]*funcFacts, seed func(*funcFacts) bool) map[*types.Func]bool {
	in := make(map[*types.Func]bool)
	for fn, ff := range facts {
		if seed(ff) {
			in[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, ff := range facts {
			if in[fn] {
				continue
			}
			for callee := range ff.callees {
				if in[callee] {
					in[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return in
}

// reportSecretUse reports at most one finding for the expression/
// statement n when it reads a secret field or calls a secret-reading
// function.
func reportSecretUse(pass *Pass, info *types.Info, n ast.Node, kind string, secretReading map[*types.Func]bool) {
	reported := false
	ast.Inspect(n, func(c ast.Node) bool {
		if reported {
			return false
		}
		switch c := c.(type) {
		case *ast.SelectorExpr:
			if isSecretField(info, c) {
				pass.Report(c.Pos(), "secret-branch",
					kind+" condition reads secret field "+c.Sel.Name+" inside an address-emitting code path; the bus-visible access sequence must not depend on it")
				reported = true
				return false
			}
		case *ast.CallExpr:
			if callee := calleeOf(info, c); callee != nil && secretReading[callee] {
				pass.Report(c.Pos(), "secret-branch",
					kind+" condition calls "+callee.Name()+", which reads secret state, inside an address-emitting code path")
				reported = true
				return false
			}
		}
		return true
	})
}

// calleeOf resolves the called function/method of a call expression, or
// nil for builtins, conversions, and indirect calls. A method of an
// instantiated generic type resolves to its generic declaration, the
// object the program indexes bodies and summaries by.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// isSecretField reports whether the selector reads a struct field
// tagged `oramlint:"secret"` (possibly among other comma-separated
// values), following the selection's embedding path.
func isSecretField(info *types.Info, sel *ast.SelectorExpr) bool {
	return taggedSelection(info, sel, TagSecret)
}
