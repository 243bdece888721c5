package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// SecretFlow is the oblivious analyzer: it flags control flow and
// timing that depend on secret state in code that can reach an
// address-emitting or temporal site. It runs on the interprocedural
// taint engine: secrets are fields tagged `oramlint:"secret"`,
// propagated through locals and across package boundaries through
// function summaries, so a guard on a local that was loaded from a
// secret map three calls away still counts.
//
// Rules:
//
//   - secret-branch: an if condition or init, a switch tag or case
//     value, a for condition, or a range operand that depends on secret
//     state, inside a function that reaches an address-emitting site
//     through package-local calls — the bus-visible access sequence
//     would depend on the secret. A condition depends on secret state
//     when the taint engine marks it, or when it reads a secret-tagged
//     field or calls a package function that (transitively) reads one;
//     the latter catches control-dependent helpers such as a slot
//     search whose result index carries no data taint.
//   - secret-sleep: time.Sleep with a secret-derived duration, or any
//     sleep executed only under a secret-dependent guard.
//   - secret-early-exit: return/continue under a secret-dependent guard
//     in a timing-relevant function, with emitting or temporal work
//     positionally after it — the early exit makes response latency a
//     function of the secret.
//   - secret-trip-count: a loop whose trip count is secret-bounded
//     (condition reads secret state, or ranges over a secret
//     collection) and whose body does temporal work.
//   - secret-park: a channel send/receive, select or Cond/WaitGroup
//     wait executed only under a secret-dependent guard — the
//     scheduling point's occurrence leaks the secret.
//
// An address-emitting site is a composite literal of one of emitTypes
// or an append to one of emitFields; the timing rules match these
// program-wide, secret-branch only within the package under analysis.
func SecretFlow(emitTypes, emitFields []string) *Analyzer {
	cfg := &flowConfig{emitTypes: emitTypes, emitFields: emitFields}
	return &Analyzer{
		Name:  "oblivious",
		Doc:   "flags secret-dependent branches and timing in access-emitting and serving code",
		Rules: []string{"secret-branch", "secret-early-exit", "secret-trip-count", "secret-park", "secret-sleep"},
		Run: func(pass *Pass) error {
			runSecretFlow(pass, cfg)
			return nil
		},
	}
}

// flowConfig is the per-instance anchor set.
type flowConfig struct {
	emitTypes, emitFields []string
}

func runSecretFlow(pass *Pass, cfg *flowConfig) {
	prog := pass.program()
	taint := prog.Taint(TagSecret)

	// bodyHas seeds a reachability set with the functions whose body
	// holds a node matching pred.
	bodyHas := func(pred func(*types.Info, ast.Node) bool) func(*FuncInfo) bool {
		return func(info *FuncInfo) bool {
			return find(info.Decl.Body, func(n ast.Node) bool { return pred(info.Pkg.Info, n) }) != nil
		}
	}
	// A function is timing-relevant when it can reach (program-wide) a
	// site that emits addresses or takes observable time. The
	// secret-branch sets follow package-local calls from this package's
	// own emit sites and secret reads.
	relevant := prog.reaches(nil, bodyHas(func(info *types.Info, n ast.Node) bool { return cfg.isWorkNode(info, n, nil) }))
	emitting := prog.reaches(pass.Pkg, bodyHas(cfg.emits))
	secretReading := prog.reaches(pass.Pkg, bodyHas(func(info *types.Info, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		return ok && taggedSelection(info, sel, TagSecret)
	}))

	for fn, info := range prog.funcs {
		if info.Pkg != pass.Pkg || !relevant[fn] {
			continue
		}
		if sc := taint.Scope(fn); sc != nil {
			checkFlow(pass, cfg, sc, info, relevant, emitting[fn], secretReading)
		}
	}
}

// find returns the first node under n, in depth-first order, for which
// pred holds (nil if none, or if n is nil).
func find(n ast.Node, pred func(ast.Node) bool) (hit ast.Node) {
	if n != nil {
		ast.Inspect(n, func(c ast.Node) bool {
			if hit == nil && c != nil && pred(c) {
				hit = c
			}
			return hit == nil
		})
	}
	return hit
}

// emits reports whether n constructs an address record: a composite
// literal of an emit type or an append to an emit field.
func (cfg *flowConfig) emits(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CompositeLit:
		named, ok := info.TypeOf(n).(*types.Named)
		return ok && slices.Contains(cfg.emitTypes, named.Obj().Name())
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
			sel, ok := n.Args[0].(*ast.SelectorExpr)
			return ok && slices.Contains(cfg.emitFields, sel.Sel.Name)
		}
	}
	return false
}

// isWorkNode reports whether n is a temporal or emitting site: channel
// operations, select, sleeps and waits, address-record
// construction, or (when relevant is non-nil) a call into a
// timing-relevant function.
func (cfg *flowConfig) isWorkNode(info *types.Info, n ast.Node, relevant map[*types.Func]bool) bool {
	if cfg.emits(info, n) {
		return true
	}
	switch n := n.(type) {
	case *ast.SendStmt, *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.CallExpr:
		callee := calleeOf(info, n)
		if callee == nil {
			return false
		}
		return isSleep(callee) || isSyncWait(callee) || relevant[callee]
	}
	return false
}

func isSleep(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}

func isSyncWait(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait"
}

// checkFlow walks one timing-relevant function, tracking whether the
// current statement executes only under a secret-dependent guard, and
// reports the rule violations; secret-branch only when the function
// reaches a package-local emit site.
func checkFlow(pass *Pass, cfg *flowConfig, sc *TaintScope, info *FuncInfo, relevant map[*types.Func]bool, emitting bool, secretReading map[*types.Func]bool) {
	tinfo := info.Pkg.Info

	// workPos collects the positions of temporal/emitting nodes, for
	// the "is there still work after this early exit" test.
	var workPos []token.Pos
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if cfg.isWorkNode(tinfo, n, relevant) {
			workPos = append(workPos, n.Pos())
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
		return find(n, func(c ast.Node) bool { return cfg.isWorkNode(tinfo, c, relevant) }) != nil
	}

	// secretRead holds for a secret-tagged field read or a call of a
	// package function that reads one.
	secretRead := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return taggedSelection(tinfo, n, TagSecret)
		case *ast.CallExpr:
			callee := calleeOf(tinfo, n)
			return callee != nil && secretReading[callee]
		}
		return false
	}
	// branch reports one secret-branch for a condition made of nodes: at
	// its first secret read, else at the first expression the taint
	// engine marks. The message names the field or callee it found.
	branch := func(kind string, nodes ...ast.Node) {
		if !emitting {
			return
		}
		var hit ast.Node
		for _, n := range nodes {
			if hit == nil {
				hit = find(n, secretRead)
			}
		}
		for _, n := range nodes {
			if e, ok := n.(ast.Expr); hit == nil && ok && sc.Tainted(e) {
				hit = e
			}
		}
		if hit == nil {
			return
		}
		what := "depends on secret state"
		switch h := hit.(type) {
		case *ast.SelectorExpr:
			if taggedSelection(tinfo, h, TagSecret) {
				what = "reads secret field " + h.Sel.Name
			}
		case *ast.CallExpr:
			if callee := calleeOf(tinfo, h); callee != nil && secretReading[callee] {
				what = "calls " + callee.Name() + ", which reads secret state"
			}
		}
		pass.Report(hit.Pos(), "secret-branch",
			kind+" condition "+what+" inside an address-emitting code path; the bus-visible access sequence must not depend on it")
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
			branch("if", n.Init, n.Cond)
			g := guarded || sc.Tainted(n.Cond)
			walkAll(guarded, n.Init, n.Cond)
			walkAll(g, n.Body, n.Else)
			return
		case *ast.SwitchStmt:
			branch("switch", n.Init, n.Tag)
			g := guarded || (n.Tag != nil && sc.Tainted(n.Tag))
			walkAll(guarded, n.Init, n.Tag)
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				cg := g
				for _, e := range cc.List {
					branch("switch case", e)
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
			branch("for", n.Cond)
			g := guarded || (n.Cond != nil && sc.Tainted(n.Cond))
			if n.Cond != nil && sc.Tainted(n.Cond) && hasWork(n.Body) {
				pass.Report(n.Pos(), "secret-trip-count",
					"loop bound reads secret state and the body does timing-observable work; iteration count leaks the secret")
			}
			walkAll(guarded, n.Init, n.Cond, n.Post)
			walk(n.Body, g)
			return
		case *ast.RangeStmt:
			// Iterating a secret collection makes the trip count — and so
			// the emitted sequence length — secret-dependent.
			branch("range", n.X)
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
			if guarded && workAfter(n.End()) {
				pass.Report(n.Pos(), "secret-early-exit",
					"return under a secret-dependent guard skips later timing-observable work; response latency leaks the secret")
			}
		case *ast.BranchStmt:
			if n.Tok == token.CONTINUE && guarded && workAfter(n.End()) {
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
