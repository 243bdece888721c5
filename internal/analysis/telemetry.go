package analysis

import (
	"go/ast"
	"go/types"
)

// Telemetry flags secret-tagged values flowing into the observability
// plane: span and flight-recorder payloads, metric observations, and
// metric names. Telemetry is exported off the box by design — scrapes,
// federation, trace dumps — so a secret reaching any of these sinks is
// an exfiltration path, not a side channel. It runs on the same
// interprocedural taint engine as the timing analyzer: secrets are
// fields tagged `oramlint:"secret"` plus everything derived from them
// across package boundaries.
//
// Sinks (matched by receiver type name + method, so the rule follows
// the obs API wherever it is used):
//
//   - secret-telemetry: an argument of Recorder.Emit (the one ring
//     behind both span and event payloads), or of Counter.Add,
//     Gauge.Set, Gauge.Max, or Histogram.Observe (observations),
//     derives from secret state.
//   - secret-metric-name: the name argument of a Registry constructor
//     (Counter, Gauge, Histogram, CounterFunc, GaugeFunc) derives from
//     secret state — a secret-shaped series name is published by every
//     scrape.
func Telemetry() *Analyzer {
	return &Analyzer{
		Name: "telemetry",
		Doc:  "flags secret-derived values reaching spans, metrics, or recorder events",
		Run: func(pass *Pass) error {
			runTelemetry(pass)
			return nil
		},
	}
}

// telemetrySinks maps receiver type name -> method name -> which
// arguments are sinks (-1: all).
var telemetrySinks = map[string]map[string]int{
	"Recorder":  {"Emit": -1},
	"Counter":   {"Add": -1},
	"Gauge":     {"Set": -1, "Max": -1},
	"Histogram": {"Observe": -1},
	"Registry": {
		"Counter": 0, "Gauge": 0, "Histogram": 0,
		"CounterFunc": 0, "GaugeFunc": 0,
	},
}

func runTelemetry(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		prog = NewProgram([]*Package{pass.Pkg})
	}
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
			argSel, ok := methods[callee.Name()]
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				if argSel >= 0 && i != argSel {
					continue
				}
				if !subexprTainted(sc, arg) {
					continue
				}
				if argSel >= 0 {
					pass.Report(call.Pos(), "secret-metric-name",
						"metric name passed to Registry."+callee.Name()+" derives from secret state; series names are published by every scrape")
				} else {
					pass.Report(call.Pos(), "secret-telemetry",
						recvTypeName(callee)+"."+callee.Name()+" argument derives from secret state; telemetry payloads leave the box on scrapes and trace dumps")
				}
				break
			}
			return true
		})
	}
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
