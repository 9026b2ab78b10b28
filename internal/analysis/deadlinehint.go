// The deadlinehint analyzer guards the one surface where a send could
// still reach the wire without its deadline. Every comm.Transport send
// (SendWithHint, MulticastTree, RepublishWithHint) takes a FlushHint and
// every lattice enqueue (SubmitDeadline) takes a deadline, so the API
// itself makes callers state their urgency — with an explicit zero
// comm.FlushHint or lattice.NoDeadline when none applies.
//
// The transport backend seam is the surface the API cannot close:
// comm.FrameSink is the byte sink the coalescer flushes into, and
// comm.BufferedConn.FrameBuffers hands out a connection's sink directly.
// Code outside comm that writes or flushes through either one has stepped
// below the seam — its bytes bypass the deadline-aware coalescer entirely,
// so no hint can ever reach them. Such sends must go through
// (*comm.Transport).SendWithHint instead.
package analysis

import "go/ast"

// DeadlineHint flags writes below the transport seam outside comm.
var DeadlineHint = &Analyzer{
	Name: "deadlinehint",
	Doc:  "code outside comm must send through the transport (SendWithHint), not write below its seam, so flush decisions see deadline slack",
	Run:  runDeadlineHint,
}

func runDeadlineHint(pass *Pass) error {
	if pass.Pkg.Path == commPkgPath {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Key on the receiver expression's static type, not the
			// resolved method — FrameSink's Write and WriteByte resolve to
			// the embedded io interfaces, which would slip past a
			// declared-on check.
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			tn := namedTypeName(typeOf(info, sel.X))
			if tn == nil || tn.Pkg() == nil || tn.Pkg().Path() != commPkgPath {
				return true
			}
			switch {
			case tn.Name() == "FrameSink":
				pass.Reportf(call.Pos(),
					"comm.FrameSink write below the transport seam bypasses the deadline-aware coalescer; send through (*comm.Transport).SendWithHint so flush decisions see deadline slack")
			case tn.Name() == "BufferedConn" && sel.Sel.Name == "FrameBuffers":
				pass.Reportf(call.Pos(),
					"comm.BufferedConn.FrameBuffers outside comm exposes the below-seam byte sink; send through (*comm.Transport).SendWithHint so flush decisions see deadline slack")
			}
			return true
		})
	}
	return nil
}
