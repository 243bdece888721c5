package analysis

import (
	"go/ast"
	"go/types"
)

// Ownership encodes the controller's scratch-aliasing contract as
// checkable rules. A "scratch" value is anything that aliases
// pool-owned buffers — fields tagged `oramlint:"scratch"` (treeScratch
// buffers, stash entries, op tables) and everything the alias-mode taint
// engine derives from them across package boundaries. Such values are
// recycled out from under any alias by the next access, so they must
// not outlive the one that borrowed them:
//
//   - scratch-store: a scratch value stored into an untagged struct
//     field, a package-level variable, or an element of a non-local
//     container. Tagged fields are the sanctioned resting places;
//     anything else silently extends the alias past the access.
//   - scratch-send: a scratch value sent on a channel. A tag marks
//     where data rests, not a conduit: whoever receives holds the
//     alias with no recycling handshake.
//   - scratch-goroutine: a goroutine launched with scratch arguments or
//     capturing scratch locals; the spawned goroutine races the next
//     access's reuse.
//   - scratch-return: an exported function returning a value that
//     aliases its own scratch (returning a caller-supplied buffer back
//     to the caller is fine — only directly-derived scratch counts).
//     Exported returns are the package boundary where the "copy before
//     issuing more traffic" contract must be stated; each needs an
//     allow spelling that contract out, or a copy.
func Ownership() *Analyzer {
	return &Analyzer{
		Name:  "ownership",
		Doc:   "flags scratch-aliasing values escaping the access lifetime",
		Rules: []string{"scratch-store", "scratch-send", "scratch-goroutine", "scratch-return"},
		Run: func(pass *Pass) error {
			runOwnership(pass)
			return nil
		},
	}
}

func runOwnership(pass *Pass) {
	prog := pass.program()
	taint := prog.Taint(TagScratch)
	for fn, info := range prog.funcs {
		if info.Pkg != pass.Pkg {
			continue
		}
		sc := taint.Scope(fn)
		if sc == nil {
			continue
		}
		checkOwnership(pass, sc, info, fn)
	}
}

func checkOwnership(pass *Pass, sc *TaintScope, info *FuncInfo, fn *types.Func) {
	tinfo := info.Pkg.Info

	// isLocal reports whether the object is function-local (params,
	// locals, captured locals) as opposed to package-level state.
	isLocal := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if _, ok := obj.(*types.Var); !ok {
			return false
		}
		return obj.Parent() == nil || obj.Parent() != obj.Pkg().Scope()
	}

	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkStores(pass, sc, tinfo, n, isLocal)
		case *ast.CompositeLit:
			checkCompositeStore(pass, sc, tinfo, n)
		case *ast.SendStmt:
			if sc.Tainted(n.Value) {
				pass.Report(n.Pos(), "scratch-send",
					"scratch-aliasing value sent on a channel; the receiver's copy of the alias outlives the access — send a copy")
			}
		case *ast.GoStmt:
			checkGoroutine(pass, sc, tinfo, n)
		case *ast.ReturnStmt:
			if !fn.Exported() {
				return true
			}
			for _, r := range n.Results {
				if sc.TaintedDirect(r) {
					pass.Report(r.Pos(), "scratch-return",
						fn.Name()+" returns a value aliasing controller scratch; the caller must copy before issuing more traffic — document the contract with an allow or return a copy")
				}
			}
		}
		return true
	})
}

// checkStores flags scratch values assigned into destinations that
// outlive the access: untagged struct fields, package-level variables,
// and elements of non-local containers.
func checkStores(pass *Pass, sc *TaintScope, tinfo *types.Info, n *ast.AssignStmt, isLocal func(types.Object) bool) {
	rhsTaint := func(i int) bool {
		if len(n.Rhs) == len(n.Lhs) {
			return sc.Tainted(n.Rhs[i])
		}
		if len(n.Rhs) == 1 {
			return sc.Tainted(n.Rhs[0])
		}
		return false
	}
	for i, lhs := range n.Lhs {
		if !rhsTaint(i) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if s, ok := tinfo.Selections[l]; ok && s.Kind() == types.FieldVal &&
				!taggedSelection(tinfo, l, TagScratch) {
				pass.Report(l.Pos(), "scratch-store",
					"scratch-aliasing value stored into untagged field "+l.Sel.Name+"; the alias outlives the access — copy it, or tag the field `oramlint:\"scratch\"` if it is part of the recycling contract")
			}
		case *ast.Ident:
			if obj := tinfo.ObjectOf(l); obj != nil && !isLocal(obj) {
				pass.Report(l.Pos(), "scratch-store",
					"scratch-aliasing value stored into package-level variable "+l.Name+"; it will dangle after the access retires")
			}
		case *ast.IndexExpr:
			// Element store: flag when the container itself is not
			// function-local (a field or package var), since the element
			// then escapes the frame.
			switch base := ast.Unparen(l.X).(type) {
			case *ast.SelectorExpr:
				if s, ok := tinfo.Selections[base]; ok && s.Kind() == types.FieldVal &&
					!taggedSelection(tinfo, base, TagScratch) {
					pass.Report(l.Pos(), "scratch-store",
						"scratch-aliasing value stored into element of untagged field "+base.Sel.Name)
				}
			case *ast.Ident:
				if obj := tinfo.ObjectOf(base); obj != nil && !isLocal(obj) {
					pass.Report(l.Pos(), "scratch-store",
						"scratch-aliasing value stored into element of package-level "+base.Name)
				}
			}
		}
	}
}

// checkCompositeStore flags composite literals that place a scratch
// value into an untagged field — the wrapper then carries the alias
// wherever it goes without the tag announcing it.
func checkCompositeStore(pass *Pass, sc *TaintScope, tinfo *types.Info, cl *ast.CompositeLit) {
	t := tinfo.TypeOf(cl)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		var tag string
		value := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			found := false
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					tag, value, found = st.Tag(j), kv.Value, true
					break
				}
			}
			if !found {
				continue
			}
		} else if i < st.NumFields() {
			tag = st.Tag(i)
		} else {
			continue
		}
		if hasTagValue(tag, TagScratch) {
			continue
		}
		if sc.Tainted(value) {
			pass.Report(value.Pos(), "scratch-store",
				"composite literal places a scratch-aliasing value in an untagged field; tag the field or store a copy")
		}
	}
}

// checkGoroutine flags goroutines that receive scratch values as
// arguments or capture scratch locals — the spawned goroutine's use of
// the alias races buffer recycling at retirement.
func checkGoroutine(pass *Pass, sc *TaintScope, tinfo *types.Info, n *ast.GoStmt) {
	for _, a := range n.Call.Args {
		if sc.Tainted(a) {
			pass.Report(a.Pos(), "scratch-goroutine",
				"goroutine launched with a scratch-aliasing argument; it races buffer recycling at retirement — pass a copy")
			return
		}
	}
	lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	reported := false
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		if reported {
			return false
		}
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := tinfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		if sc.hot(sc.vals[obj]) {
			pass.Report(id.Pos(), "scratch-goroutine",
				"goroutine closure captures scratch-aliasing variable "+id.Name+"; it races buffer recycling at retirement — capture a copy")
			reported = true
			return false
		}
		return true
	})
}
