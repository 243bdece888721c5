package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Tag values the taint engine understands. A struct field opts into a
// domain with `oramlint:"<value>"`; values combine comma-separated
// (`oramlint:"secret,scratch"`).
//
//   - secret: contents the memory-bus adversary must not learn. Taint
//     follows *values*: it survives arithmetic, indexing, conversions
//     and concatenation, because any derived value still reveals the
//     secret.
//   - scratch: pool-owned buffers that alias controller scratch and are
//     recycled out from under any alias that outlives the access. Taint
//     follows *aliasing*: it survives slicing, field/element access and
//     struct wrapping, but dies at copies (copy, string conversion,
//     fresh allocations) and never attaches to plain value types.
const (
	TagSecret  = "secret"
	TagScratch = "scratch"
)

const oramlintTagKey = "oramlint"

// hasTagValue reports whether the struct tag opts into the domain val.
func hasTagValue(tag, val string) bool {
	for _, v := range strings.Split(reflect.StructTag(tag).Get(oramlintTagKey), ",") {
		if strings.TrimSpace(v) == val {
			return true
		}
	}
	return false
}

// taggedSelection reports whether the selector reads a struct field
// carrying the tag value, following the selection's embedding path (a
// field reached through a tagged container counts as tagged).
func taggedSelection(info *types.Info, sel *ast.SelectorExpr, val string) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	for _, idx := range s.Index() {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		if hasTagValue(st.Tag(idx), val) {
			return true
		}
		t = st.Field(idx).Type()
	}
	return false
}

// Taint is one interprocedural taint analysis over a Program: per
// function, a summary of which parameters flow to its results and
// whether it returns tagged state outright, plus per-local taint inside
// every body. Summaries are computed bottom-up over the devirtualized
// call graph and parameter taint is pushed top-down from every call
// site, to a joint fixpoint, so taint crosses package boundaries in
// both directions.
type Taint struct {
	prog  *Program
	tag   string
	alias bool // aliasing semantics (scratch) vs value semantics (secret)
	fns   map[*types.Func]*TaintScope
}

// Taint mask layout: bit 0 is "tainted outright" (derived from a tagged
// field, or from a callee that returns tagged state); bit i+1 is
// "tainted iff parameter i is tainted".
const directBit uint64 = 1

func paramBit(i int) uint64 {
	if i >= 62 {
		i = 62 // collapse pathological arities onto one bit
	}
	return 1 << (i + 1)
}

// TaintScope is the engine's view of one function body.
type TaintScope struct {
	t      *Taint
	info   *FuncInfo
	params []types.Object
	vals   map[types.Object]uint64
	rets   []uint64 // taint mask per result position (so an error result does not inherit the data result's taint)
	ptaint uint64   // param bits tainted by at least one call site
}

// Taint returns the engine for the given tag value, building it on
// first use. TagScratch selects aliasing semantics; every other tag
// uses value semantics.
func (prog *Program) Taint(tag string) *Taint {
	if t, ok := prog.taints[tag]; ok {
		return t
	}
	t := &Taint{prog: prog, tag: tag, alias: tag == TagScratch, fns: make(map[*types.Func]*TaintScope)}
	for fn, info := range prog.funcs {
		sc := &TaintScope{t: t, info: info, vals: make(map[types.Object]uint64)}
		if sig, ok := fn.Type().(*types.Signature); ok {
			sc.rets = make([]uint64, sig.Results().Len())
		}
		sc.bindParams(info)
		t.fns[fn] = sc
	}
	t.solve()
	prog.taints[tag] = t
	return t
}

// bindParams records the receiver and parameter objects, seeding each
// with its positional param bit.
func (sc *TaintScope) bindParams(info *FuncInfo) {
	bind := func(id *ast.Ident) {
		var obj types.Object
		if id != nil {
			obj = info.Pkg.Info.Defs[id]
		}
		sc.params = append(sc.params, obj)
		if obj != nil {
			sc.vals[obj] |= paramBit(len(sc.params) - 1)
		}
	}
	if r := info.Decl.Recv; r != nil && len(r.List) > 0 {
		if names := r.List[0].Names; len(names) > 0 {
			bind(names[0])
		} else {
			bind(nil)
		}
	}
	for _, f := range info.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			bind(nil)
			continue
		}
		for _, name := range f.Names {
			bind(name)
		}
	}
}

// solve runs the joint fixpoint: intra-function passes consume the
// current callee summaries and call-site propagation pushes argument
// taint into callee parameters, until nothing changes.
func (t *Taint) solve() {
	for changed := true; changed; {
		changed = false
		for _, sc := range t.fns {
			if sc.pass() {
				changed = true
			}
		}
	}
}

// Scope returns the engine's view of fn's body, or nil when the program
// holds no body for it.
func (t *Taint) Scope(fn *types.Func) *TaintScope { return t.fns[fn] }

// Tainted reports whether the expression carries taint in this
// function, counting parameters that some call site taints.
func (sc *TaintScope) Tainted(e ast.Expr) bool { return sc.hot(sc.exprTaint(e)) }

// TaintedDirect reports whether the expression derives from tagged
// state inside this function itself — parameter-carried taint (the
// caller's own buffers coming back to it) does not count.
func (sc *TaintScope) TaintedDirect(e ast.Expr) bool {
	return sc.exprTaint(e)&directBit != 0
}

func (sc *TaintScope) hot(mask uint64) bool {
	return mask&directBit != 0 || mask&sc.ptaint != 0
}

// namedResults lists the idents of a function type's named results.
func namedResults(ft *ast.FuncType) []*ast.Ident {
	if ft.Results == nil {
		return nil
	}
	var out []*ast.Ident
	for _, f := range ft.Results.List {
		out = append(out, f.Names...)
	}
	return out
}

// pass runs one flow-insensitive sweep over the body, returning whether
// any fact changed. Statements inside func literals are analyzed in the
// enclosing scope (captured variables share objects); their return
// statements do not contribute to the enclosing summary.
func (sc *TaintScope) pass() bool {
	changed := false
	set := func(obj types.Object, mask uint64) {
		if obj == nil || mask == 0 {
			return
		}
		if sc.t.alias && !aliasable(obj.Type()) {
			return // plain values cannot alias scratch
		}
		if sc.vals[obj]|mask != sc.vals[obj] {
			sc.vals[obj] |= mask
			changed = true
		}
	}
	var walk func(n ast.Node, litDepth int)
	walk = func(n ast.Node, litDepth int) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			sc.assign(n, set)
		case *ast.RangeStmt:
			m := sc.exprTaint(n.X)
			set(sc.objOf(n.Key), m)
			set(sc.objOf(n.Value), m)
		case *ast.ReturnStmt:
			if litDepth == 0 {
				addRet := func(i int, m uint64) {
					if i < len(sc.rets) && sc.rets[i]|m != sc.rets[i] {
						sc.rets[i] |= m
						changed = true
					}
				}
				switch {
				case len(n.Results) == 0:
					// Bare return: named results carry the values, in
					// declaration order.
					for i, id := range namedResults(sc.info.Decl.Type) {
						addRet(i, sc.vals[sc.info.Pkg.Info.Defs[id]])
					}
				case len(n.Results) == 1 && len(sc.rets) > 1:
					// return f() forwarding a multi-result call.
					if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
						for i, m := range sc.callMasks(call) {
							addRet(i, m)
						}
					}
				default:
					for i, r := range n.Results {
						addRet(i, sc.exprTaint(r))
					}
				}
			}
		case *ast.CallExpr:
			if sc.propagateCall(n) {
				changed = true
			}
		case *ast.FuncLit:
			// Walk the body at increased literal depth so its returns do
			// not feed the enclosing summary; locals still share sc.vals.
			for _, stmt := range n.Body.List {
				walk(stmt, litDepth+1)
			}
			return
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				walk(c, litDepth)
			}
			return false
		})
	}
	walk(sc.info.Decl.Body, 0)
	return changed
}

// objOf resolves an ident expression to its object (nil otherwise).
func (sc *TaintScope) objOf(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return sc.info.Pkg.Info.ObjectOf(id)
}

// assign propagates one assignment's right-hand taints into local
// objects. Field stores do not taint the holder (field-sensitivity: the
// tag on the field, not the holder, decides); element stores into local
// slices do, because the element aliases the backing array.
func (sc *TaintScope) assign(n *ast.AssignStmt, set func(types.Object, uint64)) {
	masks := make([]uint64, len(n.Lhs))
	if len(n.Rhs) == len(n.Lhs) {
		for i, r := range n.Rhs {
			masks[i] = sc.exprTaint(r)
			if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
				masks[i] |= sc.exprTaint(n.Lhs[i]) // op-assign keeps prior taint
			}
		}
	} else if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			// Multi-result call: each lhs gets its own result's mask.
			rm := sc.callMasks(call)
			for i := range masks {
				if i < len(rm) {
					masks[i] = rm[i]
				}
			}
		} else {
			// Comma-ok, type assert, channel receive: both the value and
			// the ok bit derive from the source.
			m := sc.exprTaint(n.Rhs[0])
			for i := range masks {
				masks[i] = m
			}
		}
	}
	for i, lhs := range n.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			set(sc.info.Pkg.Info.ObjectOf(l), masks[i])
		case *ast.IndexExpr:
			if root, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				set(sc.info.Pkg.Info.ObjectOf(root), masks[i])
			}
		}
	}
}

// propagateCall pushes tainted arguments into the callee's parameter
// taint (top-down context), for every concrete candidate of the call.
func (sc *TaintScope) propagateCall(call *ast.CallExpr) bool {
	callee := calleeOf(sc.info.Pkg.Info, call)
	if callee == nil {
		return false
	}
	args := sc.callArgs(call, callee)
	changed := false
	for _, cand := range sc.t.prog.concretize(callee) {
		tsc := sc.t.fns[cand]
		if tsc == nil || len(tsc.params) == 0 {
			continue
		}
		for i, arg := range args {
			if arg == nil || !sc.hot(sc.exprTaint(arg)) {
				continue
			}
			j := min(i, len(tsc.params)-1) // variadic tail shares the last param
			bit := paramBit(j)
			if tsc.ptaint&bit == 0 {
				tsc.ptaint |= bit
				changed = true
			}
		}
	}
	return changed
}

// callArgs lines call arguments up with the callee's parameter list,
// prepending the receiver for method calls (nil for value-less slots).
func (sc *TaintScope) callArgs(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	sig, _ := callee.Type().(*types.Signature)
	var args []ast.Expr
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		} else {
			args = append(args, nil)
		}
	}
	return append(args, call.Args...)
}

// exprTaint computes the taint mask of one expression.
func (sc *TaintScope) exprTaint(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	info := sc.info.Pkg.Info
	var m uint64
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(x); obj != nil {
			m = sc.vals[obj]
		}
	case *ast.SelectorExpr:
		if taggedSelection(info, x, sc.t.tag) {
			m = directBit
		}
		// Untagged fields do not inherit the holder's taint
		// (field-sensitivity); method values carry none.
	case *ast.IndexExpr:
		m = sc.exprTaint(x.X)
		if !sc.t.alias {
			m |= sc.exprTaint(x.Index) // secret-keyed lookups yield secrets
		}
	case *ast.SliceExpr:
		m = sc.exprTaint(x.X)
	case *ast.StarExpr:
		m = sc.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		m = sc.exprTaint(x.X)
	case *ast.UnaryExpr:
		m = sc.exprTaint(x.X)
	case *ast.BinaryExpr:
		if !sc.t.alias {
			m = sc.exprTaint(x.X) | sc.exprTaint(x.Y)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= sc.exprTaint(kv.Value)
			} else {
				m |= sc.exprTaint(el)
			}
		}
	case *ast.CallExpr:
		m = sc.callTaint(x)
	}
	if sc.t.alias && m != 0 {
		if t := info.TypeOf(e); t != nil && !aliasable(t) {
			return 0 // plain values cannot alias scratch
		}
	}
	return m
}

// callTaint is the single-value view of a call: the union over its
// result positions.
func (sc *TaintScope) callTaint(call *ast.CallExpr) uint64 {
	var m uint64
	for _, r := range sc.callMasks(call) {
		m |= r
	}
	return m
}

// callMasks evaluates a call expression's per-result taint: builtins
// and conversions by their copying semantics, everything else through
// the callee summaries with actual arguments substituted for param
// bits. Keeping results separate means an error result does not inherit
// the data result's taint.
func (sc *TaintScope) callMasks(call *ast.CallExpr) []uint64 {
	info := sc.info.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. Value semantics keep taint (string(secret) is still
		// secret); aliasing semantics keep it only when the conversion can
		// share backing storage (slice->slice, pointer target), since
		// string conversions and scalar casts copy.
		if len(call.Args) != 1 {
			return nil
		}
		m := sc.exprTaint(call.Args[0])
		if sc.t.alias {
			t := info.TypeOf(call)
			s := info.TypeOf(call.Args[0])
			if t == nil || s == nil {
				return nil
			}
			_, dstSlice := t.Underlying().(*types.Slice)
			_, srcSlice := s.Underlying().(*types.Slice)
			_, dstPtr := t.Underlying().(*types.Pointer)
			if !(dstSlice && srcSlice) && !dstPtr {
				return nil
			}
		}
		return []uint64{m}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				// append(dst, src...) copies contents (launders aliases);
				// append(dst, elem) retains elem in dst's backing array, so
				// reference-typed elements keep their alias taint.
				m := sc.exprTaint(call.Args[0])
				if !sc.t.alias || call.Ellipsis == token.NoPos {
					for _, a := range call.Args[1:] {
						m |= sc.exprTaint(a)
					}
				}
				return []uint64{m}
			case "len", "cap", "min", "max":
				if sc.t.alias {
					return nil
				}
				var m uint64
				for _, a := range call.Args {
					m |= sc.exprTaint(a)
				}
				return []uint64{m}
			default: // make, new, copy, delete, clear, ...
				return nil
			}
		}
	}
	callee := calleeOf(info, call)
	if callee == nil {
		return nil
	}
	args := sc.callArgs(call, callee)
	// A method on a tagged container hands out the container's state:
	// fields do not inherit their holder's taint (field-sensitivity), so
	// the callee's summary cannot see that its receiver *is* the tagged
	// field, and the receiver expression's taint joins every result here.
	var recv uint64
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && args[0] != nil {
		recv = sc.exprTaint(args[0])
	}
	var out []uint64
	for _, cand := range sc.t.prog.concretize(callee) {
		tsc := sc.t.fns[cand]
		if tsc == nil {
			continue
		}
		for len(out) < len(tsc.rets) {
			out = append(out, recv)
		}
		for ri, ret := range tsc.rets {
			if ret&directBit != 0 {
				out[ri] |= directBit
			}
			for i := range tsc.params {
				if ret&paramBit(i) == 0 {
					continue
				}
				// Parameter i flows to this result: substitute the
				// actuals. The last parameter also collects any variadic
				// tail.
				if i < len(args) && args[i] != nil {
					out[ri] |= sc.exprTaint(args[i])
				}
				if i == len(tsc.params)-1 {
					for _, a := range args[min(i+1, len(args)):] {
						if a != nil {
							out[ri] |= sc.exprTaint(a)
						}
					}
				}
			}
		}
	}
	return out
}

// aliasable reports whether values of t can alias mutable storage:
// slices, maps, channels, pointers, funcs, interfaces, and aggregates
// containing them. Scalars, strings and pure-value aggregates cannot —
// assigning them copies.
func aliasable(t types.Type) bool {
	return aliasableSeen(t, make(map[types.Type]bool))
}

func aliasableSeen(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false // cycle through a named type: decided elsewhere
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan, *types.Pointer, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasableSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliasableSeen(u.Elem(), seen)
	default:
		return false
	}
}
