// Backend, Listener and Conn: the OS-facing half of the shm transport,
// and the glue a Conn shares with broadcast.go — ring files, the
// rendezvous hello, and the wake socket. The rendezvous runs over a
// unix-domain socket with a hand-rolled binary setup message — no gob
// below the backend seam, which erdos-vet's zerogob analyzer enforces —
// and the same socket then carries single wake bytes for the park/wake
// protocol and doubles as the liveness signal (EOF means the peer died).
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
	// a record into a ring you read" and "I freed space in a ring you
	// write".
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
	if !validCapacity(n) {
		return 0, fmt.Errorf("shm: ring capacity %d is not a power of two in [%d, %d]",
			n, minRingBytes, maxRingBytes)
	}
	return n, nil
}

// createRing creates a ring file with nslots reader slots under dir, maps
// it and stamps a fresh header. On error nothing is left behind.
func createRing(dir string, capacity uint64, nslots int) (string, *bring, error) {
	size := bringSize(capacity, nslots)
	f, err := os.CreateTemp(dir, "erdos-ring-*")
	if err != nil {
		return "", nil, err
	}
	path := f.Name()
	var br *bring
	if err = f.Truncate(int64(size)); err == nil {
		var mem []byte
		if mem, err = mapFile(f, size); err == nil {
			if br, err = initBring(mem, capacity, nslots); err != nil {
				unmap(mem)
			}
		}
	}
	f.Close()
	if err != nil {
		os.Remove(path)
		return "", nil, err
	}
	runtime.SetFinalizer(br, discard)
	return path, br, nil
}

// openRingFile maps the existing ring file at path, verifying its size
// and header.
func openRingFile(path string, size int) (*bring, error) {
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
	mem, err := mapFile(f, size)
	if err != nil {
		return nil, err
	}
	br, err := openBring(mem)
	if err != nil {
		unmap(mem)
		return nil, err
	}
	runtime.SetFinalizer(br, discard)
	return br, nil
}

// discard unmaps a mapped ring. createRing and openRingFile set it as the
// ring's finalizer: every goroutine that copies in or out of a ring holds
// the ring itself, so the mapping outlives Close and is released only
// once no reader blocked in the ring can touch it. Setup paths that never
// hand a ring out call it directly.
func discard(br *bring) {
	runtime.SetFinalizer(br, nil)
	unmap(br.mem)
}

// appendHello starts a rendezvous message: the ring magic and protocol
// version, which readHello checks on the other side.
func appendHello(msg []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(msg, bringMagic), RingVersion)
}

func readHello(r io.Reader) error {
	var hello [8 + 1]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(hello[0:8]) != bringMagic {
		return errors.New("bad magic")
	}
	if v := hello[8]; v != RingVersion {
		return fmt.Errorf("protocol version %d, want %d", v, RingVersion)
	}
	return nil
}

// appendString/readString carry a u16-length-prefixed string (a path or
// a reader name) of 1..max bytes.
func appendString(msg []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(msg, uint16(len(s))), s...)
}

func readString(r io.Reader, max int) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(lb[:]))
	if n == 0 || n > max {
		return "", fmt.Errorf("bad string length %d", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return "", err
	}
	return string(p), nil
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
	if err := readHello(sock); err != nil {
		return nil, err
	}
	var cb [8]byte
	if _, err := io.ReadFull(sock, cb[:]); err != nil {
		return nil, err
	}
	capacity := binary.LittleEndian.Uint64(cb[:])
	if !validCapacity(capacity) {
		return nil, fmt.Errorf("bad ring capacity %d", capacity)
	}
	d2aPath, err := readString(sock, 4096)
	if err != nil {
		return nil, err
	}
	a2dPath, err := readString(sock, 4096)
	if err != nil {
		return nil, err
	}
	size := bringSize(capacity, 1)
	rx, err := openRingFile(d2aPath, size)
	if err != nil {
		return nil, err
	}
	tx, err := openRingFile(a2dPath, size)
	if err == nil {
		if _, err = sock.Write([]byte{1}); err == nil {
			_ = sock.SetDeadline(time.Time{})
			return newConn(sock, tx, rx), nil
		}
		discard(tx)
	}
	discard(rx)
	return nil, err
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
	d2aPath, tx, err := createRing(b.dir(), capacity, 1)
	if err != nil {
		return nil, err
	}
	a2dPath, rx, err := createRing(b.dir(), capacity, 1)
	if err != nil {
		discard(tx)
		os.Remove(d2aPath)
		return nil, err
	}
	// Each direction's one reader is attached at offset 0 before either
	// ring is shared, so neither side ever sees a free slot.
	tx.attach(0)
	rx.attach(0)
	// The files are unlinked on every path: on success the acceptor has
	// both mapped, so the rings live exactly as long as the mappings.
	defer os.Remove(d2aPath)
	defer os.Remove(a2dPath)
	msg := appendHello(make([]byte, 0, 8+1+8+2+len(d2aPath)+2+len(a2dPath)))
	msg = binary.LittleEndian.AppendUint64(msg, capacity)
	msg = appendString(msg, d2aPath)
	msg = appendString(msg, a2dPath)
	_, err = sock.Write(msg)
	var ack [1]byte
	if err == nil {
		_, err = io.ReadFull(sock, ack[:])
	}
	if err == nil && ack[0] != 1 {
		err = fmt.Errorf("rendezvous refused (status %d)", ack[0])
	}
	if err != nil {
		discard(tx)
		discard(rx)
		return nil, err
	}
	_ = sock.SetDeadline(time.Time{})
	return newConn(sock, tx, rx), nil
}

// wakeSock is one end's rendezvous socket once setup is done: a loop
// drains the peer's wake bytes into the wait sites' channels, and the
// socket's EOF or a local close closes dead. Conn and BusReader embed it.
type wakeSock struct {
	sock      net.Conn
	dataWake  chan struct{}
	spaceWake chan struct{}
	dead      chan struct{}
	deadOnce  sync.Once
	closeOnce sync.Once
	closeErr  error
	// loopWG tracks the wake loop so close can wait for it: closing the
	// socket fails the loop's blocking Read, and waiting here guarantees
	// no goroutine survives the endpoint.
	loopWG sync.WaitGroup
}

// start takes sock over and runs its wake loop.
func (s *wakeSock) start(sock net.Conn) {
	s.sock = sock
	s.dataWake = make(chan struct{}, 1)
	s.spaceWake = make(chan struct{}, 1)
	s.dead = make(chan struct{})
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		drainWakes(sock, s.dataWake, s.spaceWake)
		s.markDead()
	}()
}

// drainWakes forwards each wake byte read from sock to the matching
// channel (a nil channel drops it) until the socket fails.
func drainWakes(sock net.Conn, dataWake, spaceWake chan struct{}) {
	buf := make([]byte, 64)
	for {
		n, err := sock.Read(buf)
		for _, b := range buf[:n] {
			switch b {
			case wakeDataByte:
				signal(dataWake)
			case wakeSpaceByte:
				signal(spaceWake)
			}
		}
		if err != nil {
			return
		}
	}
}

// signal posts a token on a cap-1 wake channel without blocking.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (s *wakeSock) markDead() {
	s.deadOnce.Do(func() { close(s.dead) })
}

// wakeDataMsg/wakeSpaceMsg are the one-byte wake messages, shared so a
// wake allocates nothing.
var (
	wakeDataMsg  = []byte{wakeDataByte}
	wakeSpaceMsg = []byte{wakeSpaceByte}
)

// wake writes one wake message to the peer. Wakes are only sent when the
// peer's park flag was observed set, so the socket never backs up.
func (s *wakeSock) wake(msg []byte) { _, _ = s.sock.Write(msg) }

// close unblocks local waiters, closes the socket (EOF unblocks the
// peer's), and reaps the wake loop. Idempotent.
func (s *wakeSock) close() error {
	s.closeOnce.Do(func() {
		s.markDead()
		s.closeErr = s.sock.Close()
		s.loopWG.Wait()
	})
	return s.closeErr
}

// park is the one wait loop behind every ring wait site: a reader's
// waitData (a Conn's or a BusReader's) and a writer's waitSpace (a
// Conn's or a BroadcastGroup's). It raises flag, this side's park word in
// the shared ring header, re-checks ready, and blocks on wake until ready
// holds. It also returns once dead closes or timeout fires (nil
// everywhere but the broadcast writer's eviction timer); the caller tells
// which from the ring's state. ready must include the ring's closed word,
// which a peer's Close sets before it closes its socket.
//
// The waiter parks at once and no poll stands behind it, because no wake
// is lost:
//   - A waker makes its change and then swaps the park word to zero,
//     sending a wake iff the swap returned one. The waiter stores
//     one and then re-checks. Both use sequentially consistent
//     sync/atomic operations, so if the re-check misses the change, the
//     swap after it (or an earlier waker's swap) reads the waiter's one
//     and sends a token after the waiter raised the flag.
//   - Each site has exactly one waiter: a reader slot has one reader,
//     and a writer holds its connection's write lock or the group's
//     publish lock. So a token that finds the cap-1 wake channel full
//     finds one that very waiter has not yet taken, and it wakes either
//     way. A stale token costs one extra re-check.
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

// waitData blocks until br publishes past pos for the reader in slot. A
// closed ring or a dead socket surfaces as io.EOF; a broadcast reader's
// eviction (slot state flipped, or the socket severed by the producer) as
// ErrEvicted or io.EOF. A Conn's one reader is never evicted.
func (s *wakeSock) waitData(br *bring, slot int, pos uint64) error {
	park(br.slotPark(slot), s.dataWake, s.dead, nil, func() bool {
		return br.tail.Load() > pos || br.closed.Load() != 0 ||
			br.slotState(slot).Load() != slotActive
	})
	switch {
	case br.tail.Load() > pos:
		return nil
	case br.closed.Load() == 0 && br.slotState(slot).Load() != slotActive:
		return ErrEvicted
	}
	return io.EOF
}

// Addr is the net.Addr of a shm connection: the rendezvous socket path.
type Addr struct{ Path string }

func (a Addr) Network() string { return "shm" }
func (a Addr) String() string  { return a.Path }

// Conn is one shared-memory connection: a tx ring this side writes into,
// an rx ring it reads from — each a ring with one reader slot, the peer's
// for tx and ours for rx — and the rendezvous socket carrying wakes and
// liveness. It implements net.Conn (so comm's ConnHook fault wrappers
// apply unchanged) and comm.BufferedConn (so unwrapped connections encode
// frames straight into the ring, skipping the bufio copy).
type Conn struct {
	wakeSock
	tx *bring
	rx *bring
	w  *bringWriter
	rd *bringReader
}

func newConn(sock net.Conn, tx, rx *bring) *Conn {
	c := &Conn{tx: tx, rx: rx, w: newBringWriter(tx), rd: newBringReader(rx, 0)}
	c.w.waitSpace = c.waitSpace
	c.w.wakeData = func(int) { c.wake(wakeDataMsg) }
	c.rd.waitData = func(pos uint64) error { return c.waitData(rx, 0, pos) }
	c.rd.wakeSpace = func() { c.wake(wakeSpaceMsg) }
	c.start(sock)
	return c
}

// waitSpace blocks until the tx ring's reader has freed space up to need,
// or the link dies. The one reader is never evicted: a Conn's writer
// waits for it as long as the link lives.
func (c *Conn) waitSpace(need uint64) error {
	tx := c.tx
	park(tx.wrPark, c.spaceWake, c.dead, nil, func() bool {
		return tx.minHead(tx.tail.Load()) >= need || tx.closed.Load() != 0
	})
	if tx.minHead(tx.tail.Load()) >= need {
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
// peer before the socket EOF), then close the wake socket. Idempotent.
func (c *Conn) Close() error {
	c.tx.closed.Store(1)
	c.rx.closed.Store(1)
	return c.close()
}

func (c *Conn) LocalAddr() net.Addr  { return Addr{Path: c.sock.LocalAddr().String()} }
func (c *Conn) RemoteAddr() net.Addr { return Addr{Path: c.sock.RemoteAddr().String()} }

// Deadlines are not supported on ring connections; the transport layers
// its own liveness on heartbeats.
func (c *Conn) SetDeadline(time.Time) error      { return nil }
func (c *Conn) SetReadDeadline(time.Time) error  { return nil }
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
