package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// globalRandFns are the math/rand (and v2) package-level functions that
// draw from the shared global source. Constructing an explicitly seeded
// generator (New, NewSource, NewZipf, NewPCG, NewChaCha8) is fine — the
// simulator's own internal/rng does exactly that.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// Determinism flags constructs that make a simulation run depend on
// anything but the configured seed: wall-clock reads, the global
// math/rand source, goroutines, select-with-default races, and
// order-sensitive bodies under map iteration. Rules: time, globalrand,
// gostmt, selectdefault, maprange.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "flags nondeterminism sources in simulation packages (seed-only reproducibility)",
	Rules: []string{"time", "globalrand", "gostmt", "selectdefault", "maprange"},
	Run:   runDeterminism,
}

// isMethod reports whether fn has a receiver: methods on a seeded
// *rand.Rand (r.Intn, r.Shuffle, ...) or a time.Time are fine; only the
// package-level globals are nondeterministic.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func runDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil && !isMethod(fn) {
					switch fn.Pkg().Path() {
					case "time":
						if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
							pass.Report(n.Pos(), "time",
								"wall-clock read (time."+fn.Name()+") breaks seed-only reproducibility; derive timing from simulated cycles")
						}
					case "math/rand", "math/rand/v2":
						if globalRandFns[fn.Name()] {
							pass.Report(n.Pos(), "globalrand",
								"global math/rand."+fn.Name()+" is seeded per process; use a seeded internal/rng.Source")
						}
					}
				}
			case *ast.GoStmt:
				pass.Report(n.Pos(), "gostmt",
					"goroutine in a simulation package: scheduling order is nondeterministic; results must be joined into index-addressed storage and annotated if benign")
			case *ast.SelectStmt:
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						pass.Report(n.Pos(), "selectdefault",
							"select with default races the scheduler: whether the default fires depends on goroutine timing")
					}
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRange(pass, n)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports the range statement when its body is
// order-sensitive: map iteration order is random per run, so a body
// that calls out, writes through non-commutative operations to state
// declared outside the loop, sends, breaks early, or returns will
// produce run-to-run drift. Three write shapes are order-insensitive
// and pass: commutative integer accumulation (counters, sums,
// bitmasks), the collect-then-sort idiom (keys = append(keys, k) into
// an outer slice — the sort after the loop restores determinism, and
// an unsorted use still shows up wherever the slice is next iterated),
// and per-key map writes (out[v] = k; assumed injective).
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	isLocal := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				obj := info.ObjectOf(x)
				return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	isIntType := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	commutative := map[token.Token]bool{
		token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
		token.OR_ASSIGN: true, token.AND_ASSIGN: true,
		token.XOR_ASSIGN: true, token.MUL_ASSIGN: true,
	}
	report := func(pos token.Pos, why string) {
		pass.Report(pos, "maprange",
			"map iteration order is random and the body "+why+"; iterate sorted keys or annotate with a justified allow")
	}

	// breakDepth tracks enclosing breakable constructs inside the body so
	// only a break that exits the map range itself is flagged.
	var walk func(n ast.Node, breakDepth int)
	walk = func(n ast.Node, breakDepth int) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				break // type conversion: pure
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
					// append/delete mutate through an assignment or a
					// per-key removal; order sensitivity is judged at the
					// enclosing statement, not here.
					switch b.Name() {
					case "len", "cap", "min", "max", "make", "new", "append", "delete":
						break
					default:
						report(n.Pos(), "calls "+b.Name())
					}
					break
				}
			}
			report(n.Pos(), "calls a function (calls may emit output or mutate state in iteration order)")
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break // new locals
			}
			for i, lhs := range n.Lhs {
				if isLocal(lhs) {
					continue
				}
				if commutative[n.Tok] && isIntType(lhs) {
					continue // order-insensitive integer accumulation
				}
				if n.Tok == token.ASSIGN {
					if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isSelfAppend(info, id, n.Rhs[i]) {
						continue // collect-then-sort idiom
					}
					if ix, ok := lhs.(*ast.IndexExpr); ok && isMapIndex(info, ix) {
						continue // per-key map write
					}
				}
				report(n.Pos(), "writes state declared outside the loop")
				return
			}
		case *ast.IncDecStmt:
			if !isLocal(n.X) && !isIntType(n.X) {
				report(n.Pos(), "writes state declared outside the loop")
			}
		case *ast.SendStmt:
			report(n.Pos(), "sends on a channel in iteration order")
		case *ast.ReturnStmt:
			report(n.Pos(), "returns mid-iteration (which element wins depends on order)")
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && n.Label == nil && breakDepth == 0 {
				report(n.Pos(), "breaks early (which elements were visited depends on order)")
			}
			if n.Tok == token.GOTO {
				report(n.Pos(), "jumps out of the loop")
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			breakDepth++
		}
		// Recurse manually so breakDepth propagates.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, breakDepth)
			return false
		})
	}
	walk(rng.Body, 0)
}

// isSelfAppend reports whether rhs is append(id, ...) for the same
// variable as the assignment target — the collect-then-sort idiom.
func isSelfAppend(info *types.Info, id *ast.Ident, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && info.ObjectOf(arg) == info.ObjectOf(id)
}

// isMapIndex reports whether ix indexes a map (per-key writes are
// order-insensitive when the key expression is injective).
func isMapIndex(info *types.Info, ix *ast.IndexExpr) bool {
	t := info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
