// The transport backend seam: everything above it — framing, codec
// negotiation, coalescing, payload pooling, ConnHook fault injection — is
// byte-transport agnostic, and everything below it is a dumb byte pipe.
// TCP is the default backend; same-host peers can ride a shared-memory
// ring backend (comm/shm) that plugs in through the same three
// interfaces. Backends carry no framing and no codecs: a backend that
// re-introduced reflection-based encoding below this seam would undo the
// zero-gob data plane, which erdos-vet's zerogob analyzer enforces.
package comm

import (
	"bufio"
	"io"
	"net"
	"strings"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// Backend is a byte-transport provider: it listens for and dials raw
// connections that the Transport layers framing and codec negotiation on
// top of. Implementations must be safe for concurrent Dial calls.
type Backend interface {
	// Scheme names the backend ("tcp", "shm"). Dial targets select a
	// backend with a "scheme://" address prefix; no prefix means tcp.
	Scheme() string
	// Listen binds the backend to addr and returns its listener. The
	// address format is backend-specific (host:port for tcp, a socket
	// path — empty for auto — for shm).
	Listen(addr string) (Listener, error)
	// Dial opens a connection to a peer backend listening on addr.
	Dial(addr string) (net.Conn, error)
}

// Listener accepts inbound backend connections.
type Listener interface {
	Accept() (net.Conn, error)
	// Addr is the dialable address of this listener, without the scheme
	// prefix.
	Addr() string
	Close() error
}

// FrameSink is the buffered byte sink frames are encoded into. A Flush
// marks a frame-train boundary: on TCP it writes the buffered bytes to the
// socket in one syscall, on a shared-memory ring it publishes the staged
// bytes as one record. bufio.Writer satisfies it.
type FrameSink interface {
	io.Writer
	io.ByteWriter
	Flush() error
}

// FrameSource is the buffered byte source frames are decoded from.
// bufio.Reader satisfies it.
type FrameSource interface {
	io.Reader
	io.ByteReader
}

// BufferedConn is an optional connection capability: a conn that provides
// its own frame buffers (a shared-memory ring conn encodes frames directly
// into the mapped ring, skipping the intermediate bufio copy). The
// Transport uses the capability only on unwrapped connections — once a
// ConnHook wraps the conn, framing goes through bufio over the wrapper so
// injected faults see every byte.
type BufferedConn interface {
	net.Conn
	FrameBuffers() (FrameSink, FrameSource)
}

// ValueConn is an optional connection capability for same-process
// backends (inproc): instead of encoding frames to bytes, the transport
// hands whole (stream, message) values to SendValue, which delivers them
// to the peer transport through a lock-free handoff queue with no
// serialization at all. Ownership transfers with the value: once
// SendValue returns nil the receiver owns the payload (including pooled
// []byte payloads — the receiving handler recycles or keeps them under
// the same contract as the byte receive path), and the sender must not
// touch it again. RecvValue blocks until a value arrives or the
// connection dies.
//
// The byte-stream side of the connection still carries the gob handshake
// and provides EOF liveness; the codec registry stays authoritative for
// cross-process links. The Transport uses the capability only on
// unwrapped connections, so ConnHook fault injection keeps seeing a byte
// pipe.
type ValueConn interface {
	net.Conn
	SendValue(id stream.ID, m message.Message) error
	RecvValue() (stream.ID, message.Message, error)
}

// SpillCounter is an optional FrameSink capability: sinks that must chunk
// oversized frame trains through a bounded medium (a shm ring forced to
// publish mid-train) report how many chunked spills occurred. Surfaced
// per link as PeerCoalesceStats.ShmSpillCount.
type SpillCounter interface {
	Spills() uint64
}

// splitScheme separates an optional "scheme://" prefix from a dial target.
// No prefix means tcp, preserving pre-seam Dial("host:port") call sites.
func splitScheme(addr string) (scheme, rest string) {
	if i := strings.Index(addr, "://"); i >= 0 {
		return addr[:i], addr[i+3:]
	}
	return "tcp", addr
}

// frameBuffers picks the encode/decode surfaces for a handshaken conn:
// the conn's own ring buffers when it offers them, bufio otherwise.
func frameBuffers(conn net.Conn) (fw FrameSink, fr FrameSource, direct bool) {
	if bc, ok := conn.(BufferedConn); ok {
		fw, fr = bc.FrameBuffers()
		return fw, fr, true
	}
	return bufio.NewWriterSize(conn, 1<<16), bufio.NewReaderSize(conn, 1<<16), false
}

// tcpBackend is the default byte transport: plain TCP with Nagle disabled,
// exactly the pre-seam behavior.
type tcpBackend struct{}

func (tcpBackend) Scheme() string { return "tcp" }

func (tcpBackend) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{ln}, nil
}

func (tcpBackend) Dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return conn, nil
}

type tcpListener struct {
	ln net.Listener
}

func (l tcpListener) Accept() (net.Conn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return conn, nil
}

func (l tcpListener) Addr() string { return l.ln.Addr().String() }
func (l tcpListener) Close() error { return l.ln.Close() }
