// The bufown analyzer proves acquire/release balance for owned pooled
// resources on every control-flow path. The receive path hands out pooled
// payloads (comm.AcquirePayload), fanout shares refcounted broadcast frames
// (newBroadcastFrame), and codecs borrow boxed headers from sync.Pools; all
// of them rely on a hand-policed protocol — release exactly once, or hand
// ownership off (relay republish, message payloads, channel sends, returns).
// A buffer dropped on an early error return is a silent allocation-rate
// regression (pooling is safe-by-default: the GC eats the loss), and a
// double release poisons the pool with an aliased buffer, which corrupts a
// later frame — the worst kind of data-plane bug.
//
// The analysis runs on the shared CFG engine (internal/analysis/flow) and
// tracks locals bound directly to an acquire:
//
//	p := comm.AcquirePayload(n)    // pooled payload
//	v := sp.Get()                  // comm.StructPool
//	h := pool.Get().(*[]byte)      // sync.Pool, single-value assert form
//	bf := newBroadcastFrame(b, t, n)
//
// Each tracked local carries {may-owned, may-released, deferred-release}
// bits. Releases are comm.RecyclePayload / ReleaseMessage, StructPool.Put,
// sync.Pool.Put, and broadcastFrame.release. Ownership transfers end
// tracking silently: returning the value, sending it on a channel, storing
// it into a field/index/element, wrapping it in a composite literal or
// message constructor (message.Data), passing it to newBroadcastFrame,
// spawning a goroutine with it, aliasing it, or capturing it in a function
// literal. Assigning an owned buffer to a package-level variable is flagged
// as an escape: pooled memory parked in globals outlives every release
// protocol. All other calls borrow — the callee may read the buffer but
// ownership stays here — which is what makes an io.ReadFull error return
// without a recycle visible as a leak.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/erdos-go/erdos/internal/analysis/flow"
)

// BufOwn flags pooled-buffer leaks, double releases, and escapes.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "every acquired pooled buffer/frame is released or ownership-transferred on all paths, exactly once",
	Run:  runBufOwn,
}

func runBufOwn(pass *Pass) error {
	a := &bufownPass{
		pass:      pass,
		info:      pass.Pkg.Info,
		decls:     packageFuncDecls(pass.Pkg),
		wrapCache: map[*types.Func]int{},
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					a.scope(n.Body)
				}
			case *ast.FuncLit:
				a.scope(n.Body)
			}
			return true
		})
	}
	return nil
}

// ownBits is the abstract state of one tracked variable.
type ownBits struct {
	kind string
	// acq is the position of the (earliest) acquire.
	acq token.Pos
	// rel is the position of the (earliest) release, when mayReleased.
	rel token.Pos
	// mayOwned: some path reaches here with the resource live.
	mayOwned bool
	// mayReleased: some path has already released it.
	mayReleased bool
	// deferRel: a deferred call releases it at function exit.
	deferRel bool
}

type ownMap map[*types.Var]*ownBits

func (s ownMap) clone() ownMap {
	c := make(ownMap, len(s))
	for k, v := range s {
		b := *v
		c[k] = &b
	}
	return c
}

// join merges src into dst with may semantics on both bits.
func (s ownMap) join(src ownMap) bool {
	changed := false
	for k, v := range src {
		d, ok := s[k]
		if !ok {
			b := *v
			s[k] = &b
			changed = true
			continue
		}
		merge := func(dst *bool, src bool) {
			if src && !*dst {
				*dst = true
				changed = true
			}
		}
		merge(&d.mayOwned, v.mayOwned)
		merge(&d.mayReleased, v.mayReleased)
		merge(&d.deferRel, v.deferRel)
		if v.acq.IsValid() && (!d.acq.IsValid() || v.acq < d.acq) {
			d.acq = v.acq
			changed = true
		}
		if v.rel.IsValid() && (!d.rel.IsValid() || v.rel < d.rel) {
			d.rel = v.rel
			changed = true
		}
	}
	return changed
}

// scope runs the ownership dataflow over one function body.
func (a *bufownPass) scope(body *ast.BlockStmt) {
	cfg := flow.New(body)
	p := flow.Problem[ownMap]{
		Entry:    func() ownMap { return ownMap{} },
		Clone:    func(s ownMap) ownMap { return s.clone() },
		Join:     func(dst, src ownMap) bool { return dst.join(src) },
		Transfer: func(s ownMap, n ast.Node) ownMap { a.transfer(s, n, nil); return s },
	}
	res := flow.Solve(cfg, p)
	// The replay pass re-runs the same transfer with a reporter attached;
	// each event is visited exactly once, so diagnostics never duplicate
	// across fixpoint iterations.
	res.Visit(p, func(n ast.Node, s ownMap) {
		scratch := s.clone()
		a.transfer(scratch, n, a.report)
	})
}

type bufownPass struct {
	pass  *Pass
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	// wrapCache memoizes wrapperReleaseParam per function object.
	wrapCache map[*types.Func]int
}

// violation describes one protocol breach found while replaying an event.
type violationKind int

const (
	vLeak violationKind = iota
	vDoubleRelease
	vOverwrite
	vEscape
)

func (a *bufownPass) report(kind violationKind, pos token.Pos, v *types.Var, st *ownBits) {
	line := func(p token.Pos) int { return a.pass.Fset.Position(p).Line }
	switch kind {
	case vLeak:
		a.pass.Reportf(pos,
			"%s %s (acquired at line %d) is not released or ownership-transferred on this return path",
			st.kind, v.Name(), line(st.acq))
	case vDoubleRelease:
		if st.mayOwned {
			a.pass.Reportf(pos,
				"conditional double release of %s %s: already released at line %d on some path",
				st.kind, v.Name(), line(st.rel))
		} else {
			a.pass.Reportf(pos,
				"double release of %s %s: already released at line %d",
				st.kind, v.Name(), line(st.rel))
		}
	case vOverwrite:
		a.pass.Reportf(pos,
			"reacquire into %s overwrites a live %s acquired at line %d without release (leak in a loop?)",
			v.Name(), st.kind, line(st.acq))
	case vEscape:
		a.pass.Reportf(pos,
			"%s %s (acquired at line %d) escapes into package-level state; pooled memory must not outlive its release protocol",
			st.kind, v.Name(), line(st.acq))
	}
}

type reporter func(kind violationKind, pos token.Pos, v *types.Var, st *ownBits)

// transfer folds one CFG event into the state. With a non-nil reporter it
// also emits diagnostics against the pre-event state (the solver passes
// nil; the replay pass passes the real reporter).
func (a *bufownPass) transfer(s ownMap, n ast.Node, rep reporter) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(s, n, rep)
	case *ast.DeclStmt:
		a.declare(s, n, rep)
	case *ast.SendStmt:
		a.exprEffects(s, n.Value, rep)
		a.transferMentioned(s, n.Value)
	case *ast.CommClause:
		if send, ok := n.Comm.(*ast.SendStmt); ok {
			a.exprEffects(s, send.Value, rep)
			a.transferMentioned(s, send.Value)
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.exprEffects(s, r, rep)
			a.transferMentioned(s, r)
		}
		if rep != nil {
			// Anything still may-owned without a deferred release leaks on
			// this path. Report in deterministic order.
			var leaked []*types.Var
			for v, st := range s {
				if st.mayOwned && !st.deferRel {
					leaked = append(leaked, v)
				}
			}
			sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
			for _, v := range leaked {
				rep(vLeak, n.Pos(), v, s[v])
			}
		}
	case *ast.DeferStmt:
		a.deferred(s, n)
	case *ast.GoStmt:
		// The goroutine takes the values it mentions with it; ownership
		// is its problem now.
		a.transferMentioned(s, n.Call)
	case *ast.SelectStmt, *ast.RangeStmt:
		// Range borrows its operand; select is a marker.
	case *ast.ExprStmt:
		a.exprEffects(s, n.X, rep)
	case ast.Expr:
		// Conditions, switch tags, case lists.
		a.exprEffects(s, n, rep)
	}
}

// assign handles acquires, aliasing, stores, and escapes.
func (a *bufownPass) assign(s ownMap, n *ast.AssignStmt, rep reporter) {
	// Effects inside the RHSs first (releases/borrows in nested calls).
	for _, r := range n.Rhs {
		a.exprEffects(s, r, rep)
	}
	// Direct acquire: one LHS ident bound to one acquiring RHS.
	if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
		if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			if kind, ok := a.acquireExpr(n.Rhs[0]); ok {
				v := a.lhsVar(id)
				if v == nil {
					return
				}
				if st, ok := s[v]; ok && st.mayOwned && !st.deferRel && rep != nil {
					rep(vOverwrite, n.Rhs[0].Pos(), v, st)
				}
				prevDefer := false
				if st, ok := s[v]; ok {
					prevDefer = st.deferRel
				}
				s[v] = &ownBits{kind: kind, acq: n.Rhs[0].Pos(), mayOwned: true, deferRel: prevDefer}
				return
			}
		}
	}
	// Not an acquire: every tracked var mentioned in a RHS either moves
	// into a structure (transfer), aliases another local (forfeits
	// tracking), or escapes into a global (flagged).
	for i, r := range n.Rhs {
		mentioned := a.mentionedVars(s, r)
		if len(mentioned) == 0 {
			continue
		}
		var lhs ast.Expr
		if len(n.Lhs) == len(n.Rhs) {
			lhs = n.Lhs[i]
		} else if len(n.Lhs) > 0 {
			lhs = n.Lhs[0]
		}
		for _, v := range mentioned {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if id.Name == "_" {
					continue // _ = p silences the compiler; still ours
				}
				if a.info.Uses[id] == v || a.info.Defs[id] == v {
					continue // self-update (p = p[:n]); same buffer
				}
				if obj, ok := a.info.Uses[id].(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
					if st := s[v]; st != nil && st.mayOwned && rep != nil {
						rep(vEscape, n.Pos(), v, st)
					}
				}
			}
			delete(s, v)
		}
	}
}

// declare handles `var p = comm.AcquirePayload(n)`.
func (a *bufownPass) declare(s ownMap, n *ast.DeclStmt, rep reporter) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			a.exprEffects(s, val, rep)
		}
		if len(vs.Names) != 1 || len(vs.Values) != 1 {
			continue
		}
		if kind, ok := a.acquireExpr(vs.Values[0]); ok {
			if v, ok := a.info.Defs[vs.Names[0]].(*types.Var); ok {
				s[v] = &ownBits{kind: kind, acq: vs.Values[0].Pos(), mayOwned: true}
			}
		}
	}
}

// deferred classifies a defer statement: a deferred release call (direct or
// wrapped in a literal) marks the variable released-at-exit; any other
// deferred use of a tracked variable hands it off.
func (a *bufownPass) deferred(s ownMap, n *ast.DeferStmt) {
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		released := a.releasedInside(s, lit.Body)
		for _, v := range released {
			if st, ok := s[v]; ok {
				st.deferRel = true
			}
		}
		// Captured but not released: the literal owns it now.
		for _, v := range a.mentionedVarsIncludingLits(s, lit.Body) {
			if st, ok := s[v]; ok && !st.deferRel {
				delete(s, v)
			}
		}
		return
	}
	if v := a.releaseTarget(n.Call); v != nil {
		if st, ok := s[v]; ok {
			st.deferRel = true
		}
		return
	}
	// defer f(p): f runs at exit with p; treat as a deferred handoff.
	a.transferMentioned(s, n.Call)
}

// exprEffects walks one expression event: releases update state (and report
// double releases), composite literals and transfer-table calls move
// ownership out, function literals capture, address-of aliases.
func (a *bufownPass) exprEffects(s ownMap, e ast.Expr, rep reporter) {
	if e == nil {
		return
	}
	flow.Inspect(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if v := a.releaseTarget(m); v != nil {
				if st, ok := s[v]; ok {
					if rep != nil && st.mayReleased {
						rep(vDoubleRelease, m.Pos(), v, st)
					}
					st.mayOwned = false
					st.mayReleased = true
					if !st.rel.IsValid() {
						st.rel = m.Pos()
					}
				}
				return true
			}
			if a.transferCall(m) {
				for _, arg := range m.Args {
					a.transferMentioned(s, arg)
				}
			}
			// Any other call borrows its arguments; ownership stays here.
		case *ast.CompositeLit:
			// Wrapping an owned value in a literal (outMsg{raw: p},
			// message.Message{Payload: p}) moves it into the structure.
			a.transferMentioned(s, m)
			return false
		case *ast.FuncLit:
			// Unreachable: flow.Inspect skips literals. Kept for clarity.
			return false
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				// Address taken: the buffer is aliased beyond tracking.
				a.transferMentioned(s, m.X)
			}
		}
		return true
	})
	// flow.Inspect skips function literals; scan them separately for
	// captures of tracked variables (the literal may outlive this frame).
	ast.Inspect(e, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			for _, v := range a.mentionedVarsIncludingLits(s, lit.Body) {
				delete(s, v)
			}
			return false
		}
		return true
	})
}

// acquireExpr classifies an expression as an ownership-creating acquire.
func (a *bufownPass) acquireExpr(e ast.Expr) (kind string, ok bool) {
	e = ast.Unparen(e)
	// Single-value type assertion over a sync.Pool Get:
	// h := pool.Get().(*[]byte). The comma-ok form has two LHS and never
	// reaches here.
	asserted := false
	if ta, isAssert := e.(*ast.TypeAssertExpr); isAssert && ta.Type != nil {
		e = ast.Unparen(ta.X)
		asserted = true
	}
	// A pooled payload is often resliced in place: AcquirePayload(n)[:0].
	if sl, isSlice := e.(*ast.SliceExpr); isSlice {
		e = ast.Unparen(sl.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name, recv := fn.Pkg().Path(), fn.Name(), recvTypeName(fn)
	switch {
	case pkg == commPkgPath && recv == "" && name == "AcquirePayload":
		return "pooled payload", true
	case pkg == commPkgPath && recv == "StructPool" && name == "Get":
		return "pooled struct", true
	case pkg == commPkgPath && recv == "" && name == "newBroadcastFrame":
		return "broadcast frame", true
	case pkg == "sync" && recv == "Pool" && name == "Get" && asserted:
		// Only the protocol form pool.Get().(*T) creates an obligation. The
		// bare v := pool.Get() returning any is pool-implementation plumbing
		// (if v := p.Get(); v != nil { ... }) where the nil branch owns
		// nothing — outside a nullness-free analysis.
		return "pooled object", true
	}
	return "", false
}

// releaseTarget returns the tracked variable a call releases, or nil: a
// direct release from the table, or a same-package release wrapper.
func (a *bufownPass) releaseTarget(call *ast.CallExpr) *types.Var {
	if v := a.directReleaseTarget(call); v != nil {
		return v
	}
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != a.pass.Pkg.Path {
		return nil
	}
	// A same-package wrapper whose body hands a parameter straight to a
	// release (l.recycle(it) → itemPool.Put(it)) releases that argument.
	// One level deep: the wrapper's body is checked against the direct
	// table only.
	if idx := a.wrapperReleaseParam(fn); idx >= 0 && idx < len(call.Args) {
		return a.identVar(call.Args[idx])
	}
	return nil
}

// directReleaseTarget matches the direct release table only.
func (a *bufownPass) directReleaseTarget(call *ast.CallExpr) *types.Var {
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pkg, name, recv := fn.Pkg().Path(), fn.Name(), recvTypeName(fn)
	argVar := func(i int) *types.Var {
		if i >= len(call.Args) {
			return nil
		}
		return a.identVar(call.Args[i])
	}
	switch {
	case pkg == commPkgPath && recv == "" && (name == "RecyclePayload" || name == "ReleaseMessage"):
		return argVar(0)
	case pkg == commPkgPath && recv == "StructPool" && name == "Put":
		return argVar(0)
	case pkg == "sync" && recv == "Pool" && name == "Put":
		return argVar(0)
	case pkg == commPkgPath && recv == "broadcastFrame" && name == "release":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return a.identVar(sel.X)
		}
		return nil
	}
	return nil
}

// wrapperReleaseParam returns the index of the parameter fn's body releases
// directly, or -1. Results are memoized per analysis pass.
func (a *bufownPass) wrapperReleaseParam(fn *types.Func) int {
	if idx, ok := a.wrapCache[fn]; ok {
		return idx
	}
	a.wrapCache[fn] = -1 // cut self-recursion while computing
	decl, ok := a.decls[fn]
	if !ok || decl.Body == nil {
		return -1
	}
	params := map[*types.Var]int{}
	i := 0
	for _, f := range decl.Type.Params.List {
		for _, name := range f.Names {
			if v, ok := a.info.Defs[name].(*types.Var); ok {
				params[v] = i
			}
			i++
		}
	}
	found := -1
	ast.Inspect(decl.Body, func(m ast.Node) bool {
		if found >= 0 {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if v := a.directReleaseTarget(call); v != nil {
				if idx, ok := params[v]; ok {
					found = idx
				}
			}
		}
		return true
	})
	a.wrapCache[fn] = found
	return found
}

// transferCall reports whether a call takes ownership of its arguments:
// message constructors wrap the payload into a message that the send path
// owns, and newBroadcastFrame owns the buffer it wraps.
func (a *bufownPass) transferCall(call *ast.CallExpr) bool {
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg, name, recv := fn.Pkg().Path(), fn.Name(), recvTypeName(fn)
	switch {
	case pkg == modPath+"/internal/core/message" && recv == "":
		return true // Data, Watermark, and friends wrap payloads
	case pkg == commPkgPath && recv == "" && name == "newBroadcastFrame":
		return true
	case pkg == commPkgPath && recv == "Transport" && name == "RepublishWithHint":
		return true // a relay republish consumes the verbatim wire frame
	case pkg == "container/heap" && recv == "" && name == "Push":
		return true // the heap owns the item until Pop hands it back
	}
	return false
}

// identVar resolves a (possibly resliced/parenthesized) expression to the
// tracked local it names, or nil.
func (a *bufownPass) identVar(e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := a.info.Uses[id].(*types.Var)
	return v
}

func (a *bufownPass) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := a.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := a.info.Uses[id].(*types.Var)
	return v
}

// mentionedVars returns the tracked variables referenced in e, skipping
// nested function literals.
func (a *bufownPass) mentionedVars(s ownMap, e ast.Expr) []*types.Var {
	var out []*types.Var
	flow.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := a.info.Uses[id].(*types.Var); ok {
				if _, tracked := s[v]; tracked {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// mentionedVarsIncludingLits is mentionedVars descending into nested
// literals — used for capture analysis of function-literal bodies.
func (a *bufownPass) mentionedVarsIncludingLits(s ownMap, n ast.Node) []*types.Var {
	var out []*types.Var
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := a.info.Uses[id].(*types.Var); ok {
				if _, tracked := s[v]; tracked {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// releasedInside returns tracked variables that a block releases via a
// direct release call (the deferred-literal release idiom).
func (a *bufownPass) releasedInside(s ownMap, body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if v := a.releaseTarget(call); v != nil {
				if _, tracked := s[v]; tracked {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// transferMentioned removes every tracked variable referenced in n from the
// state: ownership has moved and is no longer this function's obligation.
func (a *bufownPass) transferMentioned(s ownMap, n ast.Node) {
	switch e := n.(type) {
	case ast.Expr:
		for _, v := range a.mentionedVars(s, e) {
			delete(s, v)
		}
	default:
		for _, v := range a.mentionedVarsIncludingLits(s, n) {
			delete(s, v)
		}
	}
}
