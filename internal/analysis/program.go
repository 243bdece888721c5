package analysis

import (
	"go/ast"
	"go/types"
)

// Program is the whole-module view the interprocedural analyzers run
// over: every package the loader produced (analysis targets and their
// module-internal dependencies), indexed so that a *types.Func resolves
// to its declaration no matter which package it lives in. Packages share
// one loader, so a function imported by package A is the same
// *types.Func object as its definition in package B — cross-package
// call edges need no name matching.
type Program struct {
	funcs   map[*types.Func]*FuncInfo
	methods map[string][]*types.Func // concrete methods by name, for devirtualization
	taints  map[string]*Taint        // cached engines by tag value
}

// FuncInfo is one declared function with its syntactic call edges.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Callees holds every resolvable call target in the body, with
	// interface-method calls devirtualized onto every concrete method in
	// the program that implements the interface.
	Callees map[*types.Func]bool
}

// NewProgram indexes the given packages. The order is irrelevant; pass
// every package the loader touched so summaries cross package
// boundaries.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		funcs:   make(map[*types.Func]*FuncInfo),
		methods: make(map[string][]*types.Func),
		taints:  make(map[string]*Taint),
	}
	for _, pkg := range pkgs {
		prog.add(pkg)
	}
	for _, info := range prog.funcs {
		prog.resolveCalls(info)
	}
	return prog
}

func (prog *Program) add(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			prog.funcs[fn] = &FuncInfo{Pkg: pkg, Decl: fd, Callees: make(map[*types.Func]bool)}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				prog.methods[fn.Name()] = append(prog.methods[fn.Name()], fn)
			}
		}
	}
}

// resolveCalls fills info.Callees, devirtualizing interface calls.
func (prog *Program) resolveCalls(info *FuncInfo) {
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info.Pkg.Info, call)
		if callee == nil {
			return true
		}
		for _, fn := range prog.concretize(callee) {
			info.Callees[fn] = true
		}
		return true
	})
}

// concretize maps a call target onto the program functions it may reach:
// the function itself when it has a body, or — for interface methods —
// every concrete method in the program with the same name whose receiver
// implements the interface.
func (prog *Program) concretize(callee *types.Func) []*types.Func {
	if prog.funcs[callee] != nil {
		return []*types.Func{callee}
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, m := range prog.methods[callee.Name()] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, m)
		}
	}
	return out
}

// reaches computes the transitive closure of seed over the call graph:
// every function for which seed holds, or that can reach one through
// resolvable calls. A non-nil pkg confines the graph to that package's
// functions and the calls between them.
func (prog *Program) reaches(pkg *Package, seed func(*FuncInfo) bool) map[*types.Func]bool {
	in := make(map[*types.Func]bool)
	for fn, info := range prog.funcs {
		if (pkg == nil || info.Pkg == pkg) && seed(info) {
			in[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range prog.funcs {
			if in[fn] || (pkg != nil && info.Pkg != pkg) {
				continue
			}
			for callee := range info.Callees {
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
