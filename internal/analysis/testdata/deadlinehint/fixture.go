// Fixture for the deadlinehint analyzer: writes below the transport seam
// versus the transport's send calls.
package fixture

import (
	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// sends goes through the transport: every send states its hint, so none
// is flagged.
func sends(t *comm.Transport, bus *comm.Bus, id stream.ID, m message.Message, frame []byte) {
	_ = t.SendWithHint("peer", id, m, comm.FlushHint{})
	_, _ = t.MulticastTree(bus, []string{"a"}, []string{"b"}, nil, id, m, comm.FlushHint{})
	_, _ = t.RepublishWithHint(bus, []string{"a"}, []string{"b"}, frame, true, id, comm.FlushHint{})
}

// seamWrites exercises the backend-seam surface: interface-dispatched
// writes into a connection's frame buffers happen below the coalescer, so
// nothing can hint their flushes.
func seamWrites(fw comm.FrameSink, bc comm.BufferedConn, b []byte) {
	_, _ = fw.Write(b)       // want "bypasses the deadline-aware coalescer"
	_ = fw.Flush()           // want "bypasses the deadline-aware coalescer"
	_, _ = bc.FrameBuffers() // want "below-seam byte sink"
}
