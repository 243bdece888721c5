package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// Telemetry flags secret-tagged values flowing into the observability
// plane: span and flight-recorder payloads, metric observations, and
// metric names. Telemetry is exported off the box by design — scrapes,
// federation, trace dumps — so a secret reaching any of these sinks is
// an exfiltration path, not a side channel. It runs on the same
// interprocedural taint engine as the oblivious analyzer: secrets are
// fields tagged `oramlint:"secret"` plus everything derived from them
// across package boundaries.
//
// Sinks (matched by receiver type name + method, so the rule follows
// the obs API wherever it is used):
//
//   - secret-telemetry: an argument of Recorder.Emit (the one ring
//     behind both span and event payloads), or of Counter.Add,
//     Gauge.Set, Gauge.Max, or Histogram.Observe (observations),
//     derives from secret state; so does the callback of a Registry
//     CounterFunc or GaugeFunc, a func literal that reads secret state
//     or a declared function whose result derives from it — the scrape
//     publishes what it returns.
//   - secret-metric-name: the name argument of a Registry constructor
//     (Counter, Gauge, Histogram, CounterFunc, GaugeFunc) derives from
//     secret state — a secret-shaped series name is published by every
//     scrape.
func Telemetry() *Analyzer {
	return &Analyzer{
		Name:  "telemetry",
		Doc:   "flags secret-derived values reaching spans, metrics, or recorder events",
		Rules: []string{"secret-telemetry", "secret-metric-name"},
		Run: func(pass *Pass) error {
			runTelemetry(pass)
			return nil
		},
	}
}

// sinkArgs says which arguments of a sink method are checked: name is
// the series-name argument's index and values the index from which
// every argument is a payload (-1: none).
type sinkArgs struct{ name, values int }

// telemetrySinks maps receiver type name -> method name -> its sink
// arguments.
var telemetrySinks = map[string]map[string]sinkArgs{
	"Recorder":  {"Emit": {-1, 0}},
	"Counter":   {"Add": {-1, 0}},
	"Gauge":     {"Set": {-1, 0}, "Max": {-1, 0}},
	"Histogram": {"Observe": {-1, 0}},
	"Registry": {
		"Counter": {0, -1}, "Gauge": {0, -1}, "Histogram": {0, -1},
		"CounterFunc": {0, 2}, "GaugeFunc": {0, 2},
	},
}

func runTelemetry(pass *Pass) {
	prog := pass.program()
	taint := prog.Taint(TagSecret)
	for fn, info := range prog.funcs {
		if info.Pkg != pass.Pkg {
			continue
		}
		sc := taint.Scope(fn)
		if sc == nil {
			continue
		}
		tinfo := info.Pkg.Info
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(tinfo, call)
			if callee == nil {
				return true
			}
			methods, ok := telemetrySinks[recvTypeName(callee)]
			if !ok {
				return true
			}
			sink, ok := methods[callee.Name()]
			if !ok {
				return true
			}
			if n := sink.name; n >= 0 && n < len(call.Args) && subexprTainted(sc, call.Args[n]) {
				pass.Report(call.Pos(), "secret-metric-name",
					"metric name passed to Registry."+callee.Name()+" derives from secret state; series names are published by every scrape")
			}
			if sink.values < 0 {
				return true
			}
			for _, arg := range call.Args[min(sink.values, len(call.Args)):] {
				if subexprTainted(sc, arg) || funcValueSecret(taint, tinfo, arg) {
					pass.Report(call.Pos(), "secret-telemetry",
						recvTypeName(callee)+"."+callee.Name()+" argument derives from secret state; telemetry payloads leave the box on scrapes and trace dumps")
					break
				}
			}
			return true
		})
	}
}

// funcValueSecret reports whether e names a declared function or method
// (a func value, not a call) whose result derives from secret state. A
// func literal needs no such check: its body is part of the enclosing
// scope, so subexprTainted already sees what it reads.
func funcValueSecret(taint *Taint, info *types.Info, e ast.Expr) bool {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	sc := taint.Scope(fn.Origin())
	return sc != nil && slices.ContainsFunc(sc.rets, func(m uint64) bool { return m&directBit != 0 })
}

// recvTypeName returns the name of fn's receiver's named type ("" for
// plain functions), dereferencing a pointer receiver.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// subexprTainted reports whether e or any of its sub-expressions is
// secret-tainted — a composite literal with one tainted field, or a
// formatting call over a secret, both count.
func subexprTainted(sc *TaintScope, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok && sc.Tainted(x) {
			found = true
		}
		return !found
	})
	return found
}
