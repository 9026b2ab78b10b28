// The statetxn analyzer enforces transactional operator state (§5.3-§5.4):
// everything a callback mutates must live in the state.Store working view
// (ctx.State), because that is all the runtime checkpoints and all that
// RestoreAt can replay after a failure. A callback that writes a captured or
// package-level variable — or calls a pointer-receiver method on one —
// smuggles state past the transaction: after recovery the replayed inputs
// re-apply onto stale values and exactly-once breaks.
//
// It also checks the delivered-payload contract of data callbacks: the
// runtime recycles a []byte payload it received from the transport once the
// callback returns, so the payload may not outlive the call by being stored
// in the state view, sent on a channel, or handed to a goroutine that no
// ctx.Retain precedes. Sending it onward with ctx.Send is a transfer the
// runtime tracks, and is fine.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StateTxn flags callback mutations that bypass the state.Store view.
var StateTxn = &Analyzer{
	Name: "statetxn",
	Doc:  "operator callbacks mutate state only through the state.Store view (ctx.State)",
	Run:  runStateTxn,
}

// mutationExemptPkgs hold types whose pointer-receiver methods are
// synchronization, not state: calling them from a callback is fine.
var mutationExemptPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

func runStateTxn(pass *Pass) error {
	info := pass.Pkg.Info
	for _, r := range callbackRoots(pass) {
		if r.data {
			checkPayloadEscapes(pass, r)
		}
		node := r.node
		local := func(obj types.Object) bool {
			return obj.Pos() != 0 && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
		}
		flagVar := func(obj types.Object) *types.Var {
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() || local(v) {
				return nil
			}
			return v
		}
		ast.Inspect(r.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					_, obj := lvalueBase(info, lhs)
					if obj == nil {
						continue
					}
					if v := flagVar(obj); v != nil {
						pass.Reportf(lhs.Pos(),
							"%s writes %q, which outlives the invocation; operator state must live in the state.Store view (ctx.State) so RestoreAt replays it exactly once",
							r.desc, v.Name())
					}
				}
			case *ast.IncDecStmt:
				_, obj := lvalueBase(info, n.X)
				if obj != nil {
					if v := flagVar(obj); v != nil {
						pass.Reportf(n.Pos(),
							"%s writes %q, which outlives the invocation; operator state must live in the state.Store view (ctx.State) so RestoreAt replays it exactly once",
							r.desc, v.Name())
					}
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || mutationExemptPkgs[fn.Pkg().Path()] {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				rt := sig.Recv().Type()
				// Interface dispatch is opaque; only concrete pointer
				// receivers provably mutate.
				if types.IsInterface(rt) {
					return true
				}
				if _, isPtr := rt.(*types.Pointer); !isPtr {
					return true
				}
				_, obj := lvalueBase(info, sel.X)
				if obj == nil {
					return true
				}
				if v := flagVar(obj); v != nil {
					pass.Reportf(n.Pos(),
						"%s calls %s on captured %q: a pointer receiver mutates state outside the store; move the value into the operator's state.Store view",
						r.desc, fn.Name(), v.Name())
				}
			}
			return true
		})
	}
	return nil
}

// lvalueBase resolves the variable that owns an lvalue or receiver chain:
// the base identifier for x.f[i].g, or the selected package-level variable
// for pkg.Var.f. Chains rooted in calls or literals resolve to nil.
func lvalueBase(info *types.Info, e ast.Expr) (*ast.Ident, types.Object) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, info.ObjectOf(x)
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return x.Sel, info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, nil
		}
	}
}

// checkPayloadEscapes flags the ways a data callback's delivered []byte
// payload can outlive the call. The payload is the callback's third
// parameter when it is a []byte, or the Payload field of it when it is a
// message.Message; locals assigned from an aliasing expression of the
// payload (a reslice, a type assertion, an append or composite literal
// holding it) are tracked in source order.
func checkPayloadEscapes(pass *Pass, r root) {
	info := pass.Pkg.Info
	var ft *ast.FuncType
	switch n := r.node.(type) {
	case *ast.FuncLit:
		ft = n.Type
	case *ast.FuncDecl:
		ft = n.Type
	}
	var params []*ast.Ident
	for _, f := range ft.Params.List {
		params = append(params, f.Names...)
	}
	if len(params) < 3 {
		return
	}
	p := info.ObjectOf(params[2])
	if p == nil {
		return
	}
	payload := map[types.Object]bool{} // locals aliasing the payload
	var msg types.Object               // the message parameter, if any
	switch {
	case isByteSlice(p.Type()):
		payload[p] = true
	case isNamed(p.Type(), messagePkgPath, "Message"):
		msg = p
	default:
		return
	}
	stateVars := map[types.Object]bool{} // locals holding the state view

	// carries reports whether e's value may share the payload's memory.
	var carries func(e ast.Expr) bool
	carries = func(e ast.Expr) bool {
		if !mayAlias(typeOf(info, e)) {
			return false
		}
		switch e := e.(type) {
		case *ast.Ident:
			return payload[info.ObjectOf(e)]
		case *ast.ParenExpr:
			return carries(e.X)
		case *ast.SliceExpr:
			return carries(e.X)
		case *ast.TypeAssertExpr:
			return carries(e.X)
		case *ast.StarExpr:
			return carries(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && carries(e.X)
		case *ast.IndexExpr:
			return carries(e.X)
		case *ast.SelectorExpr:
			id, ok := e.X.(*ast.Ident)
			return ok && msg != nil && info.ObjectOf(id) == msg && e.Sel.Name == "Payload"
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if carries(el) {
					return true
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
				// A conversion aliases unless it copies into a string,
				// which the type check above already ruled out.
				return len(e.Args) == 1 && carries(e.Args[0])
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					// append(dst, p) keeps p; append(dst, p...) copies its bytes.
					for i, a := range e.Args {
						if spread := e.Ellipsis.IsValid() && i == len(e.Args)-1; !spread && carries(a) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	// isStateView reports whether e evaluates to the callback's state view
	// (ctx.State(), erdos.StateOf(ctx), or a local holding one), possibly
	// type-asserted.
	var isStateView func(e ast.Expr) bool
	isStateView = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return stateVars[info.ObjectOf(e)]
		case *ast.TypeAssertExpr:
			return isStateView(e.X)
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			return (fn.Pkg().Path() == operatorPkgPath && fn.Name() == "State" && recvTypeName(fn) == "Context") ||
				(fn.Pkg().Path() == erdosPkgPath && fn.Name() == "StateOf")
		}
		return false
	}
	// inStateView reports whether an lvalue lives inside the state view.
	inStateView := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return isStateView(x)
			}
		}
	}
	// retained reports whether a ctx.Retain call precedes pos.
	var retains []token.Pos
	ast.Inspect(r.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == operatorPkgPath && fn.Name() == "Retain" && recvTypeName(fn) == "Context" {
				retains = append(retains, call.Pos())
			}
		}
		return true
	})
	retained := func(pos token.Pos) bool {
		for _, at := range retains {
			if at < pos {
				return true
			}
		}
		return false
	}
	// mentions reports whether n refers to the payload anywhere.
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !found && carries(e) {
				found = true
			}
			return !found
		})
		return found
	}

	ast.Inspect(r.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[i]
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						if carries(rhs) {
							payload[obj] = true
						}
						if isStateView(rhs) {
							stateVars[obj] = true
						}
					}
					continue
				}
				if carries(rhs) && inStateView(lhs) {
					pass.Reportf(lhs.Pos(),
						"%s stores its delivered []byte payload in the ctx.State() view; the runtime recycles the buffer when the callback returns, so store a copy",
						r.desc)
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					if obj := info.ObjectOf(id); obj != nil {
						payload[obj] = payload[obj] || carries(n.Values[i])
						stateVars[obj] = stateVars[obj] || isStateView(n.Values[i])
					}
				}
			}
		case *ast.SendStmt:
			if carries(n.Value) {
				pass.Reportf(n.Pos(),
					"%s sends its delivered []byte payload on a channel; the runtime recycles the buffer when the callback returns, so send a copy, or ctx.Retain it and release when the receiver is done",
					r.desc)
			}
		case *ast.GoStmt:
			// Arguments escape by value; a function literal also by capture.
			escapes := false
			for _, a := range n.Call.Args {
				escapes = escapes || carries(a)
			}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				escapes = escapes || mentions(lit.Body)
			}
			if escapes && !retained(n.Pos()) {
				pass.Reportf(n.Pos(),
					"%s hands its delivered []byte payload to a goroutine with no ctx.Retain before it; the runtime recycles the buffer when the callback returns, so Retain first and release when the goroutine is done",
					r.desc)
			}
		}
		return true
	})
}

// isByteSlice reports whether t is a []byte (any named form).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isNamed reports whether t is the named type pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	tn := namedTypeName(t)
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == pkg && tn.Name() == name
}

// mayAlias reports whether a value of type t can share memory with a []byte
// it was derived from; basic values (bytes, numbers, strings) cannot.
func mayAlias(t types.Type) bool {
	if t == nil {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}
