// Package shm is the shared-memory byte-transport backend for same-host
// peers: each direction of a connection is one mmap-backed SPSC ring
// buffer, so a frame send is a memcpy into the ring plus one atomic store,
// with no syscall on the hot path. The rendezvous and park/wake channel is
// a unix-domain socket: ring file paths travel over it at setup, single
// wake bytes travel over it when a parked side must be unblocked (a
// waiting side parks at once, and its peer sends a wake byte only when it
// finds the park word set; see park), and its EOF is the liveness signal
// when a peer dies without closing cleanly.
//
// This file is the ring itself — layout, record framing, producer and
// consumer cursors — over a plain []byte, with no OS dependencies, so the
// wraparound and corruption paths are unit- and fuzz-testable without
// mmap.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Ring file layout. The control fields producers and consumers ping-pong
// on live on separate cache lines: head and the consumer's park flag are
// written by the consumer, tail and the producer's park flag by the
// producer, so neither side's hot stores invalidate the other's line.
//
//	offset 0    magic  u64
//	offset 8    capacity u64 (power of two, data-region bytes)
//	offset 16   closed u32 (either side sets; sticky)
//	offset 64   head   u64 (consumer cursor, free-running)   ┐ consumer line
//	offset 72   rdPark u32 (consumer parked, wants data wake)┘
//	offset 128  tail   u64 (producer cursor, free-running)   ┐ producer line
//	offset 136  wrPark u32 (producer parked, wants space wake)┘
//	offset 256  data region (capacity bytes)
//
// Records are [u32 length][u32 sequence][length body bytes], wrapping
// byte-wise at the data-region edge. A record is one published frame
// train (everything between two FrameSink flushes), chunked at
// capacity/4 so frame trains larger than the ring stream through it.
// The sequence number is validated by the consumer: a reused, torn, or
// corrupted ring surfaces as a sequence/length error that drops the
// connection instead of delivering garbage frames.
const (
	ringMagic = 0x45524453484d3031 // "ERDSHM01"

	// RingVersion is the rendezvous protocol version; a mismatch refuses
	// the shm connection and the dialer falls back to TCP.
	RingVersion = 1

	offCapacity = 8
	offClosed   = 16
	offHead     = 64
	offRdPark   = 72
	offTail     = 128
	offWrPark   = 136
	ringDataOff = 256

	recHdrSize = 8

	// minRingBytes/maxRingBytes bound the capacities accepted from a
	// rendezvous peer, so a corrupt or hostile setup message cannot make
	// us map an absurd region.
	minRingBytes = 4 << 10
	maxRingBytes = 1 << 30
)

var (
	errRingLayout = errors.New("shm: ring buffer has invalid layout")
	// ErrRingCorrupt is the sticky consumer error for sequence or length
	// validation failures; the transport treats it like any read error
	// and drops the peer.
	ErrRingCorrupt = errors.New("shm: ring record corrupt")
	errRingClosed  = errors.New("shm: ring closed")
)

// ring is one direction's shared region. The atomic fields point into the
// mapped memory, so stores are visible to the peer process.
type ring struct {
	mem  []byte
	data []byte
	cap  uint64
	mask uint64

	head   *atomic.Uint64
	tail   *atomic.Uint64
	closed *atomic.Uint32
	rdPark *atomic.Uint32
	wrPark *atomic.Uint32
}

// initRing stamps a fresh ring header into mem (the creating side calls
// it once before the peer maps the file).
func initRing(mem []byte, capacity uint64) (*ring, error) {
	if uint64(len(mem)) != ringDataOff+capacity {
		return nil, errRingLayout
	}
	for i := range mem[:ringDataOff] {
		mem[i] = 0
	}
	binary.LittleEndian.PutUint64(mem[0:8], ringMagic)
	binary.LittleEndian.PutUint64(mem[offCapacity:], capacity)
	return openRing(mem)
}

// openRing validates mem's header and returns cursors over it. It accepts
// arbitrary bytes (the fuzz target feeds it hostile headers), so every
// field is range-checked before use.
func openRing(mem []byte) (*ring, error) {
	if len(mem) < ringDataOff {
		return nil, errRingLayout
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return nil, errRingLayout
	}
	if binary.LittleEndian.Uint64(mem[0:8]) != ringMagic {
		return nil, errRingLayout
	}
	capacity := binary.LittleEndian.Uint64(mem[offCapacity:])
	if capacity < minRingBytes || capacity > maxRingBytes || capacity&(capacity-1) != 0 {
		return nil, errRingLayout
	}
	if uint64(len(mem)) != ringDataOff+capacity {
		return nil, errRingLayout
	}
	r := &ring{
		mem:    mem,
		data:   mem[ringDataOff:],
		cap:    capacity,
		mask:   capacity - 1,
		head:   (*atomic.Uint64)(unsafe.Pointer(&mem[offHead])),
		tail:   (*atomic.Uint64)(unsafe.Pointer(&mem[offTail])),
		closed: (*atomic.Uint32)(unsafe.Pointer(&mem[offClosed])),
		rdPark: (*atomic.Uint32)(unsafe.Pointer(&mem[offRdPark])),
		wrPark: (*atomic.Uint32)(unsafe.Pointer(&mem[offWrPark])),
	}
	return r, nil
}

// copyIn writes b into the data region at free-running offset pos,
// wrapping at the edge.
func (r *ring) copyIn(pos uint64, b []byte) {
	i := pos & r.mask
	n := copy(r.data[i:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
}

// copyOut reads len(b) bytes from free-running offset pos into b.
func (r *ring) copyOut(pos uint64, b []byte) {
	i := pos & r.mask
	n := copy(b, r.data[i:])
	if n < len(b) {
		copy(b[n:], r.data[:len(b)-n])
	}
}

// ringWriter is the producer cursor: a comm.FrameSink that stages frame
// bytes directly into the ring and publishes one record per Flush
// (chunked at chunk bytes so oversized trains stream). Single-producer:
// exactly one goroutine may use it at a time.
type ringWriter struct {
	r      *ring
	tail   uint64 // published producer offset (mirrors r.tail)
	staged uint64 // body bytes staged past tail+recHdrSize
	seq    uint32
	chunk  uint64
	err    error

	// spills counts records force-published mid-train: frame trains
	// larger than the chunk budget (or the free space) streaming through
	// the ring in pieces. Written by the single producer, read by stats
	// snapshots (comm.SpillCounter), hence atomic.
	spills atomic.Uint64

	// waitSpace blocks until head >= minHead (enough freed space) or the
	// link dies; wakeData unparks a consumer after a publish. Wired to
	// the Conn's park/wake machinery; tests use spinning defaults.
	waitSpace func(minHead uint64) error
	wakeData  func()
}

func newRingWriter(r *ring) *ringWriter {
	w := &ringWriter{r: r, tail: r.tail.Load(), chunk: r.cap / 4}
	w.waitSpace = func(minHead uint64) error {
		for r.head.Load() < minHead {
			if r.closed.Load() != 0 {
				return errRingClosed
			}
			runtime.Gosched()
		}
		return nil
	}
	w.wakeData = func() {}
	return w
}

// free returns how many body bytes may be staged right now (the record
// header space is already accounted for).
func (w *ringWriter) free() int64 {
	return int64(w.r.cap) - int64(w.tail+recHdrSize+w.staged-w.r.head.Load())
}

func (w *ringWriter) Write(b []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := len(b)
	for len(b) > 0 {
		if w.staged >= w.chunk {
			w.spills.Add(1)
			if err := w.publish(); err != nil {
				return total - len(b), err
			}
		}
		avail := w.free()
		if avail <= 0 {
			// Publish what is staged so the consumer can drain it —
			// otherwise a train larger than the free space deadlocks —
			// then block until at least one byte of space frees up.
			if w.staged > 0 {
				w.spills.Add(1)
			}
			if err := w.publish(); err != nil {
				return total - len(b), err
			}
			minHead := w.tail + recHdrSize + 1
			if minHead < w.r.cap {
				minHead = 0
			} else {
				minHead -= w.r.cap
			}
			if err := w.waitSpace(minHead); err != nil {
				w.err = err
				return total - len(b), err
			}
			continue
		}
		n := uint64(len(b))
		if n > uint64(avail) {
			n = uint64(avail)
		}
		if rem := w.chunk - w.staged; n > rem {
			n = rem
		}
		w.r.copyIn(w.tail+recHdrSize+w.staged, b[:n])
		w.staged += n
		b = b[n:]
	}
	return total, nil
}

func (w *ringWriter) WriteByte(c byte) error {
	if w.err == nil && w.staged < w.chunk && w.free() > 0 {
		w.r.data[(w.tail+recHdrSize+w.staged)&w.mask()] = c
		w.staged++
		return nil
	}
	var buf [1]byte
	buf[0] = c
	_, err := w.Write(buf[:])
	return err
}

func (w *ringWriter) mask() uint64 { return w.r.mask }

// publish seals the staged bytes as one record: backfill the length and
// sequence header, advance the shared tail (the atomic store is the
// release barrier that makes the body visible), and wake a parked
// consumer.
func (w *ringWriter) publish() error {
	if w.err != nil {
		return w.err
	}
	if w.r.closed.Load() != 0 {
		w.err = errRingClosed
		return w.err
	}
	if w.staged == 0 {
		return nil
	}
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.staged))
	binary.LittleEndian.PutUint32(hdr[4:8], w.seq)
	w.r.copyIn(w.tail, hdr[:])
	w.tail += recHdrSize + w.staged
	w.staged = 0
	w.seq++
	w.r.tail.Store(w.tail)
	if w.r.rdPark.Load() != 0 && w.r.rdPark.Swap(0) != 0 {
		w.wakeData()
	}
	return nil
}

// Flush publishes the staged record; it is the FrameSink frame-train
// boundary.
func (w *ringWriter) Flush() error { return w.publish() }

// Spills implements comm.SpillCounter: how many records were
// force-published mid-train because the train outgrew the chunk budget
// or the free space. comm surfaces it per link as
// PeerCoalesceStats.ShmSpillCount.
func (w *ringWriter) Spills() uint64 { return w.spills.Load() }

// ringReader is the consumer cursor: a comm.FrameSource that validates
// record headers and hands out the byte stream records carry.
// Single-consumer: exactly one goroutine may use it at a time.
type ringReader struct {
	r         *ring
	pos       uint64 // consumed offset, including record headers
	remaining uint64 // unread body bytes of the current record
	seq       uint32
	err       error

	// waitData blocks until tail > pos (a record is published) or the
	// link dies; wakeSpace unparks a producer after space is freed.
	waitData  func(pos uint64) error
	wakeSpace func()
}

func newRingReader(r *ring) *ringReader {
	rd := &ringReader{r: r, pos: r.head.Load()}
	rd.waitData = func(pos uint64) error {
		for r.tail.Load() <= pos {
			if r.closed.Load() != 0 {
				if r.tail.Load() > pos {
					return nil
				}
				return io.EOF
			}
			runtime.Gosched()
		}
		return nil
	}
	rd.wakeSpace = func() {}
	return rd
}

// readHeader consumes and validates the next record header. The sequence
// check catches torn or replayed wraparounds; the length checks catch
// corrupt prefixes before they can drive a huge wait or a bogus cursor
// advance.
func (rd *ringReader) readHeader() error {
	if err := rd.waitData(rd.pos); err != nil {
		rd.err = err
		return err
	}
	var hdr [recHdrSize]byte
	rd.r.copyOut(rd.pos, hdr[:])
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	seq := binary.LittleEndian.Uint32(hdr[4:8])
	if seq != rd.seq {
		rd.err = fmt.Errorf("%w: sequence %d, want %d", ErrRingCorrupt, seq, rd.seq)
		return rd.err
	}
	if ln == 0 || uint64(ln) > rd.r.cap-recHdrSize {
		rd.err = fmt.Errorf("%w: record length %d", ErrRingCorrupt, ln)
		return rd.err
	}
	if rd.pos+recHdrSize+uint64(ln) > rd.r.tail.Load() {
		rd.err = fmt.Errorf("%w: record overruns published tail", ErrRingCorrupt)
		return rd.err
	}
	rd.pos += recHdrSize
	rd.remaining = uint64(ln)
	rd.seq++
	return nil
}

// release publishes the new head (freeing ring space) and wakes a parked
// producer.
func (rd *ringReader) release() {
	rd.r.head.Store(rd.pos)
	if rd.r.wrPark.Load() != 0 && rd.r.wrPark.Swap(0) != 0 {
		rd.wakeSpace()
	}
}

func (rd *ringReader) Read(p []byte) (int, error) {
	if rd.err != nil {
		return 0, rd.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if rd.remaining == 0 {
		if err := rd.readHeader(); err != nil {
			return 0, err
		}
	}
	n := uint64(len(p))
	if n > rd.remaining {
		n = rd.remaining
	}
	rd.r.copyOut(rd.pos, p[:n])
	rd.pos += n
	rd.remaining -= n
	// Publish the consumed space only at record boundaries: a head store
	// per byte would bounce the consumer cache line on every uvarint of
	// the frame decoder, and records are capped at a quarter ring so the
	// producer never starves waiting for an end-of-record release.
	if rd.remaining == 0 {
		rd.release()
	}
	return int(n), nil
}

func (rd *ringReader) ReadByte() (byte, error) {
	if rd.err != nil {
		return 0, rd.err
	}
	if rd.remaining == 0 {
		if err := rd.readHeader(); err != nil {
			return 0, err
		}
	}
	c := rd.r.data[rd.pos&rd.r.mask]
	rd.pos++
	rd.remaining--
	if rd.remaining == 0 {
		rd.release()
	}
	return c, nil
}
