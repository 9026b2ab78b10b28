// The lockhold analyzer keeps critical sections non-blocking. The lattice
// shard queues, the transport's COW peer/codec tables, and the cluster
// forwarding state are all guarded by mutexes on the hot path; a blocking
// call — channel op, transport send, net or gob I/O, sleep — made while one
// is held turns a lock-free-in-spirit section into a convoy (and, when the
// blocked operation needs the same lock to drain, a deadlock).
//
// The analysis runs on the shared CFG engine (internal/analysis/flow): the
// abstract state is the set of may-held locks, keyed by the receiver
// chain's expression text ("t.mu"), each carrying its acquire position.
// Lock/RLock adds a key, an inline Unlock/RUnlock removes it, and a
// deferred unlock removes nothing — the section runs to function end. Path
// sensitivity means a lock released on one branch but not the other is
// still held at the join, unlike the old syntactic interval scan, which
// only saw the earliest textual unlock. sync.Cond.Wait is exempt because
// it releases its mutex while parked; defer and go statements cannot block
// the section (they run at another time), so their bodies are not scanned.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/erdos-go/erdos/internal/analysis/flow"
)

// LockHold flags blocking calls made while a mutex is held.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking calls (sends, channel ops, net/gob I/O, sleeps) while holding a mutex",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lockholdScope(pass, n.Body)
				}
			case *ast.FuncLit:
				// A nested literal is another goroutine's scope; it gets
				// its own CFG with an empty entry state.
				lockholdScope(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// lockState maps a held lock's receiver-chain key to its acquire position.
type lockState map[string]token.Pos

// lockholdProblem is the dataflow problem for one function body.
func lockholdProblem(info *types.Info) flow.Problem[lockState] {
	return flow.Problem[lockState]{
		Entry: func() lockState { return lockState{} },
		Clone: func(s lockState) lockState {
			c := make(lockState, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		// May-held union: a lock held on any incoming path counts as held.
		// On conflict the earliest acquire position wins, keeping the
		// reported line stable.
		Join: func(dst, src lockState) bool {
			changed := false
			for k, v := range src {
				if old, ok := dst[k]; !ok || v < old {
					dst[k] = v
					changed = true
				}
			}
			return changed
		},
		Transfer: func(s lockState, n ast.Node) lockState {
			switch n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred unlocks release only at return; the section
				// stays hot until function end. Goroutine bodies are
				// separate scopes.
				return s
			}
			flow.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, unlock := lockCall(info, call); key != "" {
						if unlock {
							delete(s, key)
						} else {
							s[key] = call.Pos()
						}
					}
				}
				return true
			})
			return s
		},
	}
}

func lockholdScope(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	cfg := flow.New(body)
	p := lockholdProblem(info)
	res := flow.Solve(cfg, p)

	report := func(pos token.Pos, desc string, s lockState) {
		// Pick the earliest-acquired held lock so the message is stable
		// across join orders.
		var key string
		var at token.Pos
		for k, v := range s {
			if key == "" || v < at {
				key, at = k, v
			}
		}
		if key == "" {
			return
		}
		pass.Reportf(pos,
			"blocking %s while holding %s (locked at line %d); copy out under the lock and do the blocking work after unlock",
			desc, key, pass.Fset.Position(at).Line)
	}

	res.Visit(p, func(n ast.Node, s lockState) {
		if len(s) == 0 {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Runs at another time; cannot block this section.
			return
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				report(n.Pos(), "select without default", s)
			}
			return
		case *ast.CommClause:
			// The clause's comm op is the select's own; the header event
			// already accounted for it.
			return
		case *ast.RangeStmt:
			if t := typeOf(info, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "range over channel", s)
				}
			}
			return
		}
		flow.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				report(m.Pos(), "channel send", s)
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					report(m.Pos(), "channel receive", s)
				}
			case *ast.CallExpr:
				if desc, ok := blockingCall(info, m); ok {
					report(m.Pos(), desc, s)
				}
			}
			return true
		})
	})
}

// lockCall classifies a call as a mutex acquire or release, returning the
// textual key of the receiver chain ("t.mu") and whether it releases.
// Non-lock calls return key "".
func lockCall(info *types.Info, call *ast.CallExpr) (key string, unlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), false
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), true
	}
	return "", false
}

// blockingCall reports whether a call belongs to the blocking set and
// describes it. Calls through function values are not classified: the
// analysis is intentionally first-order.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name, recv := fn.Pkg().Path(), fn.Name(), recvTypeName(fn)
	switch {
	case pkg == "time" && recv == "" && name == "Sleep":
		return "time.Sleep", true
	case pkg == "sync" && recv == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	case pkg == "net" && recv == "" &&
		(strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
		return "net." + name, true
	case pkg == "net" && name == "Accept":
		return "net listener Accept", true
	case pkg == "net" && (name == "Read" || name == "Write" || name == "ReadFrom" || name == "WriteTo"):
		return "net connection I/O", true
	case pkg == commPkgPath && recv == "Transport" &&
		(name == "SendWithHint" || name == "Dial" || name == "DialBackoff"):
		return "comm.Transport." + name, true
	case pkg == "encoding/gob" && (name == "Encode" || name == "Decode"):
		return "gob " + name + " (stream I/O)", true
	case pkg == "bufio" && recv == "Writer" && name == "Flush":
		return "bufio.Writer.Flush", true
	}
	return "", false
}
