// Backend, Listener and Conn: the OS-facing half of the shm transport.
// The rendezvous runs over a unix-domain socket with a hand-rolled binary
// setup message — no gob below the backend seam, which erdos-vet's
// zerogob analyzer enforces — and the same socket then carries single
// wake bytes for the park/wake protocol and doubles as the liveness
// signal (EOF means the peer died).
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
)

const (
	// DefaultRingBytes is the per-direction ring capacity when the
	// Backend does not override it: large enough that a coalesced
	// 256 KB frame train is one record, small enough to stay cheap per
	// peer pair.
	DefaultRingBytes = 1 << 20

	// wakeDataByte/wakeSpaceByte are the park/wake signals: "I published
	// a record into my tx ring" and "I freed space in my rx ring".
	wakeDataByte  = 'd'
	wakeSpaceByte = 's'

	// rendezvousTimeout bounds the setup exchange so a stalled or
	// hostile dialer cannot wedge the accept loop.
	rendezvousTimeout = 2 * time.Second
)

// Backend is a comm.Backend whose connections are shared-memory ring
// pairs, for peers on the same host. The zero value is ready to use.
type Backend struct {
	// Dir is where ring files and rendezvous sockets are created;
	// empty means os.TempDir().
	Dir string
	// RingBytes is the per-direction ring capacity (power of two,
	// >= 4 KB); 0 means DefaultRingBytes.
	RingBytes int
}

// New returns a Backend with default sizing.
func New() *Backend { return &Backend{} }

// Scheme implements comm.Backend.
func (*Backend) Scheme() string { return "shm" }

func (b *Backend) dir() string {
	if b.Dir != "" {
		return b.Dir
	}
	return os.TempDir()
}

func (b *Backend) ringBytes() (uint64, error) {
	n := uint64(DefaultRingBytes)
	if b.RingBytes != 0 {
		n = uint64(b.RingBytes)
	}
	if n < minRingBytes || n > maxRingBytes || n&(n-1) != 0 {
		return 0, fmt.Errorf("shm: ring capacity %d is not a power of two in [%d, %d]",
			n, minRingBytes, maxRingBytes)
	}
	return n, nil
}

// sockSeq disambiguates auto-generated rendezvous socket paths within a
// process.
var sockSeq atomic.Uint64

// Listen implements comm.Backend. addr is the rendezvous socket path;
// empty picks a fresh path under Dir.
func (b *Backend) Listen(addr string) (comm.Listener, error) {
	if _, err := b.ringBytes(); err != nil {
		return nil, err
	}
	if addr != "" {
		ln, err := net.Listen("unix", addr)
		if err != nil {
			return nil, err
		}
		return &listener{b: b, ln: ln, path: addr}, nil
	}
	for i := 0; i < 100; i++ {
		path := filepath.Join(b.dir(),
			fmt.Sprintf("erdos-shm-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
		ln, err := net.Listen("unix", path)
		if err == nil {
			return &listener{b: b, ln: ln, path: path}, nil
		}
	}
	return nil, errors.New("shm: could not find a free rendezvous socket path")
}

type listener struct {
	b    *Backend
	ln   net.Listener
	path string
}

func (l *listener) Addr() string { return l.path }
func (l *listener) Close() error { return l.ln.Close() }

// Accept implements comm.Listener: accept a rendezvous socket, read the
// dialer's setup message, map the ring pair it created, and acknowledge.
func (l *listener) Accept() (net.Conn, error) {
	sock, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	c, err := l.accept(sock)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("shm: accept rendezvous: %w", err)
	}
	return c, nil
}

func (l *listener) accept(sock net.Conn) (*Conn, error) {
	_ = sock.SetDeadline(time.Now().Add(rendezvousTimeout))
	var fixed [8 + 1 + 8]byte
	if _, err := io.ReadFull(sock, fixed[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(fixed[0:8]) != ringMagic {
		return nil, errors.New("bad magic")
	}
	if v := fixed[8]; v != RingVersion {
		return nil, fmt.Errorf("protocol version %d, want %d", v, RingVersion)
	}
	capacity := binary.LittleEndian.Uint64(fixed[9:17])
	if capacity < minRingBytes || capacity > maxRingBytes || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("bad ring capacity %d", capacity)
	}
	readPath := func() (string, error) {
		var lb [2]byte
		if _, err := io.ReadFull(sock, lb[:]); err != nil {
			return "", err
		}
		n := binary.LittleEndian.Uint16(lb[:])
		if n == 0 || n > 4096 {
			return "", fmt.Errorf("bad path length %d", n)
		}
		p := make([]byte, n)
		if _, err := io.ReadFull(sock, p); err != nil {
			return "", err
		}
		return string(p), nil
	}
	d2aPath, err := readPath()
	if err != nil {
		return nil, err
	}
	a2dPath, err := readPath()
	if err != nil {
		return nil, err
	}
	size := int(ringDataOff + capacity)
	d2a, err := mapRingFile(d2aPath, size)
	if err != nil {
		return nil, err
	}
	a2d, err := mapRingFile(a2dPath, size)
	if err != nil {
		unmap(d2a)
		return nil, err
	}
	rx, err := openRing(d2a)
	if err == nil {
		var tx *ring
		if tx, err = openRing(a2d); err == nil {
			if _, werr := sock.Write([]byte{1}); werr != nil {
				err = werr
			} else {
				_ = sock.SetDeadline(time.Time{})
				return newConn(sock, tx, rx, [][]byte{d2a, a2d}), nil
			}
		}
	}
	unmap(d2a)
	unmap(a2d)
	return nil, err
}

// mapRingFile opens and maps an existing ring file, verifying its size.
func mapRingFile(path string, size int) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() != int64(size) {
		return nil, fmt.Errorf("ring file %s is %d bytes, want %d", path, st.Size(), size)
	}
	return mapFile(f, size)
}

// Dial implements comm.Backend: create the ring pair, rendezvous with
// the listener at the socket path addr, and return the connection. Any
// setup failure unwinds completely, so the caller can fall back to TCP.
func (b *Backend) Dial(addr string) (net.Conn, error) {
	capacity, err := b.ringBytes()
	if err != nil {
		return nil, err
	}
	sock, err := net.Dial("unix", addr)
	if err != nil {
		return nil, err
	}
	c, err := b.dial(sock, capacity)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("shm: dial rendezvous %s: %w", addr, err)
	}
	return c, nil
}

func (b *Backend) dial(sock net.Conn, capacity uint64) (*Conn, error) {
	_ = sock.SetDeadline(time.Now().Add(rendezvousTimeout))
	size := int(ringDataOff + capacity)
	createRing := func() (string, []byte, *ring, error) {
		f, err := os.CreateTemp(b.dir(), "erdos-ring-*")
		if err != nil {
			return "", nil, nil, err
		}
		path := f.Name()
		if err := f.Truncate(int64(size)); err != nil {
			f.Close()
			os.Remove(path)
			return "", nil, nil, err
		}
		mem, err := mapFile(f, size)
		f.Close()
		if err != nil {
			os.Remove(path)
			return "", nil, nil, err
		}
		r, err := initRing(mem, capacity)
		if err != nil {
			unmap(mem)
			os.Remove(path)
			return "", nil, nil, err
		}
		return path, mem, r, nil
	}
	d2aPath, d2aMem, tx, err := createRing()
	if err != nil {
		return nil, err
	}
	a2dPath, a2dMem, rx, err := createRing()
	if err != nil {
		unmap(d2aMem)
		os.Remove(d2aPath)
		return nil, err
	}
	fail := func(err error) (*Conn, error) {
		unmap(d2aMem)
		unmap(a2dMem)
		os.Remove(d2aPath)
		os.Remove(a2dPath)
		return nil, err
	}
	msg := make([]byte, 0, 8+1+8+2+len(d2aPath)+2+len(a2dPath))
	msg = binary.LittleEndian.AppendUint64(msg, ringMagic)
	msg = append(msg, RingVersion)
	msg = binary.LittleEndian.AppendUint64(msg, capacity)
	msg = binary.LittleEndian.AppendUint16(msg, uint16(len(d2aPath)))
	msg = append(msg, d2aPath...)
	msg = binary.LittleEndian.AppendUint16(msg, uint16(len(a2dPath)))
	msg = append(msg, a2dPath...)
	if _, err := sock.Write(msg); err != nil {
		return fail(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(sock, ack[:]); err != nil {
		return fail(err)
	}
	if ack[0] != 1 {
		return fail(fmt.Errorf("rendezvous refused (status %d)", ack[0]))
	}
	// The acceptor has both files mapped; unlink them so the rings live
	// exactly as long as the mappings.
	os.Remove(d2aPath)
	os.Remove(a2dPath)
	_ = sock.SetDeadline(time.Time{})
	return newConn(sock, tx, rx, [][]byte{d2aMem, a2dMem}), nil
}

// Addr is the net.Addr of a shm connection: the rendezvous socket path.
type Addr struct{ Path string }

func (a Addr) Network() string { return "shm" }
func (a Addr) String() string  { return a.Path }

// Conn is one shared-memory connection: a tx ring this side produces
// into, an rx ring it consumes from, and the rendezvous socket carrying
// wakes and liveness. It implements net.Conn (so comm's ConnHook fault
// wrappers apply unchanged) and comm.BufferedConn (so unwrapped
// connections encode frames straight into the ring, skipping the bufio
// copy).
type Conn struct {
	sock net.Conn
	tx   *ring
	rx   *ring
	w    *ringWriter
	rd   *ringReader

	dataWake  chan struct{}
	spaceWake chan struct{}
	dead      chan struct{}
	deadOnce  sync.Once
	closeOnce sync.Once
	closeErr  error
	// loopWG tracks sockLoop so Close can wait for it: closing the socket
	// fails the loop's blocking Read, and waiting here guarantees no
	// goroutine survives the connection.
	loopWG sync.WaitGroup

	maps [][]byte
}

func newConn(sock net.Conn, tx, rx *ring, maps [][]byte) *Conn {
	c := &Conn{
		sock:      sock,
		tx:        tx,
		rx:        rx,
		dataWake:  make(chan struct{}, 1),
		spaceWake: make(chan struct{}, 1),
		dead:      make(chan struct{}),
		maps:      maps,
	}
	c.w = newRingWriter(tx)
	c.w.waitSpace = c.waitSpace
	c.w.wakeData = c.sendWake(wakeDataByte)
	c.rd = newRingReader(rx)
	c.rd.waitData = c.waitData
	c.rd.wakeSpace = c.sendWake(wakeSpaceByte)
	c.loopWG.Add(1)
	go c.sockLoop()
	// The mappings outlive Close on purpose: a reader blocked in the
	// ring must never touch unmapped memory, so the pages are released
	// when the Conn itself is collected.
	runtime.SetFinalizer(c, (*Conn).unmapAll)
	return c
}

func (c *Conn) unmapAll() {
	for _, m := range c.maps {
		unmap(m)
	}
	c.maps = nil
}

// sockLoop drains wake bytes, forwarding each to the matching waiter
// channel, and flags the connection dead on socket EOF or error.
func (c *Conn) sockLoop() {
	defer c.loopWG.Done()
	buf := make([]byte, 64)
	for {
		n, err := c.sock.Read(buf)
		for _, b := range buf[:n] {
			switch b {
			case wakeDataByte:
				select {
				case c.dataWake <- struct{}{}:
				default:
				}
			case wakeSpaceByte:
				select {
				case c.spaceWake <- struct{}{}:
				default:
				}
			}
		}
		if err != nil {
			c.markDead()
			return
		}
	}
}

func (c *Conn) markDead() {
	c.deadOnce.Do(func() { close(c.dead) })
}

// sendWake returns a func that writes one wake byte to the peer. Wakes
// are only sent when the peer's park flag was observed set, so the
// socket never backs up.
func (c *Conn) sendWake(b byte) func() {
	buf := []byte{b}
	return func() {
		_, _ = c.sock.Write(buf)
	}
}

// park is the one wait loop behind every ring wait site: a Conn's
// waitData and waitSpace, a BusReader's waitData and a BroadcastGroup's
// waitSpace. It raises flag, this side's park word in the shared ring
// header, re-checks ready, and blocks on wake until ready holds. It also
// returns once dead closes or timeout fires (nil everywhere but the
// broadcast writer's eviction timer); the caller tells which from the
// ring's state. ready must include the ring's closed word, which a
// peer's Close sets before it closes its socket.
//
// The waiter parks at once and no poll stands behind it, because no wake
// is lost:
//   - A waker makes its change and then swaps the park word to zero,
//     sending a wake iff the swap returned one. The waiter stores
//     one and then re-checks. Both use sequentially consistent
//     sync/atomic operations, so if the re-check misses the change, the
//     swap after it (or an earlier waker's swap) reads the waiter's one
//     and sends a token after the waiter raised the flag.
//   - Each site has exactly one waiter: a ring or reader slot has one
//     consumer, and a writer holds its connection's write lock or the
//     group's publish lock. So a token that finds the cap-1 wake channel
//     full finds one that very waiter has not yet taken, and it wakes
//     either way. A stale token costs one extra re-check.
//   - A local Close and the peer's death (EOF on the socket) both close
//     dead.
func park(flag *atomic.Uint32, wake, dead <-chan struct{}, timeout <-chan time.Time, ready func() bool) {
	for {
		flag.Store(1)
		if ready() {
			flag.Store(0)
			return
		}
		select {
		case <-wake:
		case <-dead:
			return
		case <-timeout:
			return
		}
	}
}

// waitData blocks until the rx ring has a published record past pos, or
// the link dies (io.EOF).
func (c *Conn) waitData(pos uint64) error {
	rx := c.rx
	park(rx.rdPark, c.dataWake, c.dead, nil, func() bool {
		return rx.tail.Load() > pos || rx.closed.Load() != 0
	})
	if rx.tail.Load() > pos {
		return nil
	}
	return io.EOF
}

// waitSpace blocks until the tx ring's head reaches minHead (the
// consumer freed enough space), or the link dies.
func (c *Conn) waitSpace(minHead uint64) error {
	tx := c.tx
	park(tx.wrPark, c.spaceWake, c.dead, nil, func() bool {
		return tx.head.Load() >= minHead || tx.closed.Load() != 0
	})
	if tx.head.Load() >= minHead {
		return nil
	}
	return errRingClosed
}

// FrameBuffers implements comm.BufferedConn: the transport's framing
// writes straight into the tx ring and reads straight from the rx ring.
func (c *Conn) FrameBuffers() (comm.FrameSink, comm.FrameSource) {
	return c.w, c.rd
}

// Read implements net.Conn for wrapped (fault-injected) connections;
// unwrapped transports use FrameBuffers instead.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.Read(p) }

// Write implements net.Conn: each call stages and publishes one record,
// so a bufio flush above maps to one published train.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if err == nil {
		err = c.w.Flush()
	}
	return n, err
}

// Close implements net.Conn: mark both rings closed (visible to the
// peer), close the rendezvous socket (EOF unblocks the peer's waiters),
// and unblock local waiters. Idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.tx.closed.Store(1)
		c.rx.closed.Store(1)
		c.markDead()
		c.closeErr = c.sock.Close()
		// The closed socket fails the loop's pending Read; reap it so a
		// closed Conn leaves nothing running.
		c.loopWG.Wait()
	})
	return c.closeErr
}

func (c *Conn) LocalAddr() net.Addr  { return Addr{Path: c.sock.LocalAddr().String()} }
func (c *Conn) RemoteAddr() net.Addr { return Addr{Path: c.sock.RemoteAddr().String()} }

// Deadlines are not supported on ring connections; the transport layers
// its own liveness on heartbeats.
func (c *Conn) SetDeadline(time.Time) error      { return nil }
func (c *Conn) SetReadDeadline(time.Time) error  { return nil }
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
