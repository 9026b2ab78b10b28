// Shared detection of operator-callback roots: the function bodies the
// runtime invokes on the data path — data/watermark callbacks, deadline
// exception handlers, and frequency-deadline observers. The wallclock and
// statetxn analyzers scope their checks to these roots (and, for wallclock,
// to the same-package helpers they reach), because that is exactly the code
// whose behavior must replay deterministically and whose state must flow
// through the store.
package analysis

import (
	"go/ast"
	"go/types"
)

// Module-internal package paths the analyzers key on. Matching is by import
// path of the *referenced* object, so fixture packages that import the real
// runtime are analyzed identically to module code.
const (
	modPath         = "github.com/erdos-go/erdos"
	erdosPkgPath    = modPath + "/internal/core/erdos"
	operatorPkgPath = modPath + "/internal/core/operator"
	messagePkgPath  = modPath + "/internal/core/message"
	commPkgPath     = modPath + "/internal/core/comm"
	streamPkgPath   = modPath + "/internal/core/stream"
	statePkgPath    = modPath + "/internal/core/state"
	faultsPkgPath   = modPath + "/internal/core/faults"
	elasticPkgPath  = modPath + "/internal/core/cluster/elastic"
)

// root is one callback function body in the analyzed package.
type root struct {
	// node is an *ast.FuncLit or *ast.FuncDecl.
	node ast.Node
	// body is the function's body block.
	body *ast.BlockStmt
	// desc says how the function became a callback, for diagnostics.
	desc string
	// data marks a data callback: its third parameter carries the
	// delivered payload.
	data bool
}

// registrar describes one erdos registration call whose argument is a
// callback: package path, function (or method) name, and the positional
// index of the callback argument.
type registrar struct {
	pkg  string
	name string
	arg  int
	desc string
	data bool
}

var registrars = []registrar{
	{erdosPkgPath, "Input", 2, "data callback (erdos.Input)", true},
	{erdosPkgPath, "OnWatermark", 0, "watermark callback (OpBuilder.OnWatermark)", false},
	{erdosPkgPath, "TimestampDeadline", 3, "deadline exception handler (OpBuilder.TimestampDeadline)", false},
	{erdosPkgPath, "FrequencyDeadline", 3, "watermark-insert observer (OpBuilder.FrequencyDeadline)", false},
}

// specField marks operator.Spec-family struct fields that hold callbacks,
// catching registrations that bypass the builder (composite literals and
// direct field assignment). Spec.OnData is the one data callback.
var specFields = map[[2]string]string{
	{"Spec", "OnData"}:                    "data callback (operator.Spec.OnData)",
	{"Spec", "OnWatermark"}:               "watermark callback (operator.Spec.OnWatermark)",
	{"TimestampDeadlineSpec", "Handler"}:  "deadline exception handler (operator.TimestampDeadlineSpec.Handler)",
	{"FrequencyDeadlineSpec", "OnInsert"}: "watermark-insert observer (operator.FrequencyDeadlineSpec.OnInsert)",
}

// callbackRoots scans the package for operator-callback registrations and
// returns the function bodies they bind, deduplicated.
func callbackRoots(pass *Pass) []root {
	info := pass.Pkg.Info
	decls := packageFuncDecls(pass.Pkg)
	seen := map[ast.Node]bool{}
	var roots []root

	add := func(expr ast.Expr, desc string, data bool) {
		switch e := ast.Unparen(expr).(type) {
		case *ast.FuncLit:
			if !seen[e] {
				seen[e] = true
				roots = append(roots, root{node: e, body: e.Body, desc: desc, data: data})
			}
		case *ast.Ident, *ast.SelectorExpr:
			id := rightmostIdent(e)
			if id == nil {
				return
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return
			}
			if decl := decls[fn]; decl != nil && decl.Body != nil && !seen[decl] {
				seen[decl] = true
				roots = append(roots, root{node: decl, body: decl.Body, desc: desc, data: data})
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				for _, r := range registrars {
					if fn.Pkg().Path() == r.pkg && fn.Name() == r.name && r.arg < len(n.Args) {
						add(n.Args[r.arg], r.desc, r.data)
					}
				}
			case *ast.CompositeLit:
				tn := namedTypeName(typeOf(info, n))
				if tn == nil || tn.Pkg() == nil || tn.Pkg().Path() != operatorPkgPath {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if desc, ok := specFields[[2]string{tn.Name(), key.Name}]; ok {
						add(kv.Value, desc, key.Name == "OnData")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					v, ok := info.Uses[sel.Sel].(*types.Var)
					if !ok || !v.IsField() || v.Pkg() == nil || v.Pkg().Path() != operatorPkgPath {
						continue
					}
					tn := namedTypeName(typeOf(info, sel.X))
					if tn == nil {
						continue
					}
					if desc, ok := specFields[[2]string{tn.Name(), sel.Sel.Name}]; ok {
						add(n.Rhs[i], desc, sel.Sel.Name == "OnData")
					}
				}
			}
			return true
		})
	}
	return roots
}

// reachableDecls returns the package-level function declarations reachable
// from the roots through same-package references (calls or function values),
// transitively. Cross-package reachability is out of scope: callees in other
// packages are covered when those packages declare their own roots or
// deterministic scope.
func reachableDecls(pass *Pass, roots []root) map[*ast.FuncDecl]string {
	info := pass.Pkg.Info
	decls := packageFuncDecls(pass.Pkg)
	out := map[*ast.FuncDecl]string{}
	var queue []*ast.FuncDecl

	scan := func(body *ast.BlockStmt, desc string) {
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if decl := decls[fn]; decl != nil && decl.Body != nil {
				if _, dup := out[decl]; !dup {
					out[decl] = desc
					queue = append(queue, decl)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		scan(r.body, "reachable from "+r.desc)
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		scan(d.Body, "reachable from "+d.Name.Name+" (called from an operator callback)")
	}
	// Roots that are themselves declarations must not double-report.
	for _, r := range roots {
		if d, ok := r.node.(*ast.FuncDecl); ok {
			delete(out, d)
		}
	}
	return out
}

// packageFuncDecls maps each declared function and method object to its
// syntax.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves the function or method a call statically invokes,
// unwrapping parens and generic instantiation syntax. Calls through function
// values resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		id = rightmostIdent(fun.X)
	case *ast.IndexListExpr:
		id = rightmostIdent(fun.X)
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rightmostIdent returns the identifier naming e: the ident itself, or the
// selector's Sel.
func rightmostIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// namedTypeName returns the *types.TypeName behind t (unwrapping one level
// of pointer and instantiated generics), or nil for unnamed types.
func namedTypeName(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj()
	case *types.Alias:
		return t.Obj()
	}
	return nil
}

// recvTypeName returns the name of fn's receiver type (unwrapping pointers),
// or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if tn := namedTypeName(t); tn != nil {
		return tn.Name()
	}
	return ""
}
