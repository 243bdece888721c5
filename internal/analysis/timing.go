package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Timing flags secret-dependent *timing* in code that can reach an
// address-emitting or temporal site — the request-timing side channel
// that bus-trace obliviousness does not cover. It runs on the
// interprocedural taint engine: secrets are fields tagged
// `oramlint:"secret"`, propagated across package boundaries through
// function summaries, so a guard on a local that was loaded from a
// secret map three calls away still counts.
//
// Rules:
//
//   - secret-sleep: time.Sleep with a secret-derived duration, or any
//     sleep executed only under a secret-dependent guard.
//   - secret-early-exit: return/continue under a secret-dependent guard
//     in a timing-relevant function, with emitting or temporal work
//     positionally after it — the early exit makes response latency a
//     function of the secret. Functions that directly construct
//     address records are exempt here: their secret guards are already
//     the oblivious analyzer's jurisdiction.
//   - secret-trip-count: a loop whose trip count is secret-bounded
//     (condition reads secret state, or ranges over a secret
//     collection) and whose body does temporal work.
//   - secret-park: a channel send/receive, select or Cond/WaitGroup
//     wait executed only under a secret-dependent guard — the
//     scheduling point's occurrence leaks the secret.
//
// emitTypes/emitFields anchor "address-emitting" exactly like the
// oblivious analyzer (composite literals of the named types, appends to
// the named fields), but matched program-wide.
func Timing(emitTypes, emitFields []string) *Analyzer {
	return &Analyzer{
		Name: "timing",
		Doc:  "flags secret-dependent timing in access-emitting and serving code",
		Run: func(pass *Pass) error {
			runTiming(pass, emitTypes, emitFields)
			return nil
		},
	}
}

// timingConfig is the per-instance anchor set.
type timingConfig struct {
	emitType  map[string]bool
	emitField map[string]bool
}

func runTiming(pass *Pass, emitTypes, emitFields []string) {
	prog := pass.Prog
	if prog == nil {
		prog = NewProgram([]*Package{pass.Pkg})
	}
	cfg := &timingConfig{
		emitType:  make(map[string]bool),
		emitField: make(map[string]bool),
	}
	for _, t := range emitTypes {
		cfg.emitType[t] = true
	}
	for _, f := range emitFields {
		cfg.emitField[f] = true
	}
	taint := prog.Taint(TagSecret)

	// A function is timing-relevant when it can reach (program-wide) a
	// site that emits addresses or takes observable time.
	relevant := prog.reaches(func(info *FuncInfo) bool {
		found := false
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if cfg.isWorkNode(info.Pkg.Info, n, nil) {
				found = true
			}
			return !found
		})
		return found
	})

	for fn, info := range prog.funcs {
		if info.Pkg != pass.Pkg || !relevant[fn] {
			continue
		}
		sc := taint.Scope(fn)
		if sc == nil {
			continue
		}
		checkTiming(pass, cfg, sc, info, relevant)
	}
}

// isWorkNode reports whether n is a temporal or emitting site: channel
// operations, select, sleeps and waits, address-record
// construction, or (when relevant is non-nil) a call into a
// timing-relevant function.
func (cfg *timingConfig) isWorkNode(info *types.Info, n ast.Node, relevant map[*types.Func]bool) bool {
	switch n := n.(type) {
	case *ast.SendStmt, *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.CompositeLit:
		if named, ok := info.TypeOf(n).(*types.Named); ok && cfg.emitType[named.Obj().Name()] {
			return true
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
			if sel, ok := n.Args[0].(*ast.SelectorExpr); ok && cfg.emitField[sel.Sel.Name] {
				return true
			}
		}
		callee := calleeOf(info, n)
		if callee == nil {
			return false
		}
		if isSleep(callee) || isSyncWait(callee) {
			return true
		}
		return relevant != nil && relevant[callee]
	}
	return false
}

func isSleep(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}

func isSyncWait(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait"
}

// checkTiming walks one timing-relevant function, tracking whether the
// current statement executes only under a secret-dependent guard, and
// reports the four rule violations.
func checkTiming(pass *Pass, cfg *timingConfig, sc *TaintScope, info *FuncInfo, relevant map[*types.Func]bool) {
	tinfo := info.Pkg.Info

	// directEmits: this body constructs address records itself; its
	// secret guards belong to the oblivious analyzer, so skip the
	// early-exit rule to avoid double-reporting.
	directEmits := false
	// workEnds collects the positions of temporal/emitting nodes, for
	// the "is there still work after this early exit" test.
	var workPos []token.Pos
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if cfg.isWorkNode(tinfo, n, relevant) {
			workPos = append(workPos, n.Pos())
			if cl, ok := n.(*ast.CompositeLit); ok {
				if named, ok := tinfo.TypeOf(cl).(*types.Named); ok && cfg.emitType[named.Obj().Name()] {
					directEmits = true
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
					if sel, ok := call.Args[0].(*ast.SelectorExpr); ok && cfg.emitField[sel.Sel.Name] {
						directEmits = true
					}
				}
			}
		}
		return true
	})
	workAfter := func(end token.Pos) bool {
		for _, p := range workPos {
			if p > end {
				return true
			}
		}
		return false
	}
	hasWork := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if found {
				return false
			}
			if cfg.isWorkNode(tinfo, c, relevant) {
				found = true
			}
			return !found
		})
		return found
	}

	var walk func(n ast.Node, guarded bool)
	walkAll := func(guarded bool, nodes ...ast.Node) {
		for _, n := range nodes {
			if n != nil {
				walk(n, guarded)
			}
		}
	}
	walk = func(n ast.Node, guarded bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// The literal's body runs on its caller's clock; guards here
			// do not extend into it.
			walk(n.Body, false)
			return
		case *ast.IfStmt:
			g := guarded || sc.Tainted(n.Cond)
			walkAll(guarded, n.Init, n.Cond)
			walkAll(g, n.Body, n.Else)
			return
		case *ast.SwitchStmt:
			g := guarded || (n.Tag != nil && sc.Tainted(n.Tag))
			walkAll(guarded, n.Init, n.Tag)
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				cg := g
				for _, e := range cc.List {
					if sc.Tainted(e) {
						cg = true
					}
					walk(e, guarded)
				}
				for _, s := range cc.Body {
					walk(s, cg)
				}
			}
			return
		case *ast.ForStmt:
			g := guarded || (n.Cond != nil && sc.Tainted(n.Cond))
			if n.Cond != nil && sc.Tainted(n.Cond) && hasWork(n.Body) {
				pass.Report(n.Pos(), "secret-trip-count",
					"loop bound reads secret state and the body does timing-observable work; iteration count leaks the secret")
			}
			walkAll(guarded, n.Init, n.Cond, n.Post)
			walk(n.Body, g)
			return
		case *ast.RangeStmt:
			g := guarded || sc.Tainted(n.X)
			if sc.Tainted(n.X) && hasWork(n.Body) {
				pass.Report(n.Pos(), "secret-trip-count",
					"range over secret collection with timing-observable work in the body; iteration count leaks the secret")
			}
			walk(n.X, guarded)
			walk(n.Body, g)
			return
		case *ast.SendStmt:
			if guarded {
				pass.Report(n.Pos(), "secret-park",
					"channel send executed only under a secret-dependent guard; the scheduling point's occurrence leaks the secret")
			}
		case *ast.SelectStmt:
			if guarded {
				pass.Report(n.Pos(), "secret-park",
					"select executed only under a secret-dependent guard")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && guarded {
				pass.Report(n.Pos(), "secret-park",
					"channel receive executed only under a secret-dependent guard")
			}
		case *ast.CallExpr:
			if callee := calleeOf(tinfo, n); callee != nil {
				switch {
				case isSleep(callee):
					if len(n.Args) == 1 && sc.Tainted(n.Args[0]) {
						pass.Report(n.Pos(), "secret-sleep",
							"time.Sleep duration derives from secret state")
					} else if guarded {
						pass.Report(n.Pos(), "secret-sleep",
							"time.Sleep executed only under a secret-dependent guard")
					}
				case isSyncWait(callee):
					if guarded {
						pass.Report(n.Pos(), "secret-park",
							callee.Name()+" parks the caller only under a secret-dependent guard; whether the access stalls leaks the secret")
					}
				}
			}
		case *ast.ReturnStmt:
			if guarded && !directEmits && workAfter(n.End()) {
				pass.Report(n.Pos(), "secret-early-exit",
					"return under a secret-dependent guard skips later timing-observable work; response latency leaks the secret")
			}
		case *ast.BranchStmt:
			if n.Tok == token.CONTINUE && guarded && !directEmits && workAfter(n.End()) {
				pass.Report(n.Pos(), "secret-early-exit",
					"continue under a secret-dependent guard skips later timing-observable work in the loop body")
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				walk(c, guarded)
			}
			return false
		})
	}
	walk(info.Decl.Body, false)
}
