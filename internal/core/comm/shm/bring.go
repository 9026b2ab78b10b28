// Package shm is the shared-memory byte-transport backend for same-host
// peers. Its one data structure is the broadcast ring: an mmap-backed
// single-writer ring with a fixed table of reader slots, so a frame send
// is a memcpy into the ring plus one atomic store, with no syscall on the
// hot path. Each direction of a Conn is a ring with one reader slot; a
// BroadcastGroup is a ring with several, so one producer publishes each
// fanout frame into shared memory exactly once and every attached reader
// consumes the same record stream through its own cursor. Space
// reclamation is governed by the slowest reader's watermark — the writer
// may only overwrite bytes every active reader has released — and a
// broadcast reader that lags so far the writer starves is *evicted*: its
// slot is marked, its frames stop, and the producer falls back to
// per-link delivery for it (the same fault model as a severed link). A
// Conn's single reader is never evicted; its writer waits for space.
//
// The rendezvous and park/wake channel is a unix-domain socket: ring file
// paths travel over it at setup, single wake bytes travel over it when a
// parked side must be unblocked (a waiting side parks at once, and its
// peer sends a wake byte only when it finds the park word set; see park),
// and its EOF is the liveness signal when a peer dies without closing
// cleanly.
//
// This file is the ring itself — layout, record framing, cursors, reclaim
// and eviction — over a plain []byte with no OS dependencies, so
// wraparound, late-join, lag and corruption paths are unit- and
// fuzz-testable without mmap. shm.go and broadcast.go add the mmap and
// rendezvous glue.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Ring file layout. The writer's cursor line and each reader's slot live
// on separate cache lines so one side's hot stores do not invalidate
// another's line.
//
//	offset 0    magic      u64 ("ERDSHM02")
//	offset 8    capacity   u64 (power of two, data-region bytes)
//	offset 16   closed     u32 (sticky; the writer sets it, and either
//	                            end of a Conn)
//	offset 20   maxReaders u32
//	offset 64   tail       u64 (writer cursor, free-running) ┐
//	offset 72   wrPark     u32 (writer parked)               │ writer line
//	offset 80   frontier   u64 (furthest reserved write, see below)
//	offset 128  reader slots, maxReaders × 64 bytes:
//	              +0  head  u64 (reader cursor, free-running)
//	              +8  state u32 (free / active / evicted)
//	              +12 park  u32 (reader parked, wants data wake)
//	offset 128 + maxReaders*64   data region (capacity bytes)
//
// Records are [u32 length][u32 sequence][length body bytes], wrapping
// byte-wise at the data-region edge. A record is one published frame
// train (everything between two FrameSink flushes), chunked at
// capacity/4 so frame trains larger than the ring stream through it.
// Sequence numbers are global to the ring. A reader attached at offset 0
// expects sequence 0; one attaching mid-stream adopts the first sequence
// it sees. Either validates strict increments from there, so a reused,
// torn, or corrupted ring surfaces as a sequence/length error that drops
// the connection instead of delivering garbage frames.
const (
	bringMagic = 0x45524453484d3032 // "ERDSHM02"

	// RingVersion is the rendezvous protocol version; a mismatch refuses
	// the shm connection and the dialer falls back to TCP.
	RingVersion = 2

	offCapacity    = 8
	offClosed      = 16
	offBMaxReaders = 20
	offBTail       = 64
	offBWrPark     = 72
	offBFrontier   = 80
	bringSlotsOff  = 128
	bringSlotSize  = 64
	slotHeadOff    = 0
	slotStateOff   = 8
	slotParkOff    = 12

	recHdrSize = 8

	// minRingBytes/maxRingBytes bound the capacities accepted from a
	// rendezvous peer or a mapped header, so a corrupt or hostile setup
	// message cannot make us map an absurd region.
	minRingBytes = 4 << 10
	maxRingBytes = 1 << 30

	// Reader slot states. free→active happens at attach (head is
	// initialized first, under the group's publish lock, or by a Conn's
	// dialer before the ring is shared); active→evicted is the writer
	// cutting a lagging reader loose; evicted→free (and active→free on
	// clean detach) happens once the reader's rendezvous socket closes.
	slotFree    = 0
	slotActive  = 1
	slotEvicted = 2

	// maxBroadcastReaders bounds the slot count accepted from a mapped
	// header, like min/maxRingBytes bound capacity.
	maxBroadcastReaders = 64

	// DefaultBroadcastReaders is the slot count NewBroadcastGroup
	// allocates: enough for every same-host consumer of a fanout-heavy
	// pipeline stage, cheap enough (64 B/slot) to never matter.
	DefaultBroadcastReaders = 8
)

var (
	errRingLayout = errors.New("shm: ring buffer has invalid layout")
	// ErrRingCorrupt is the sticky reader error for sequence or length
	// validation failures; the transport treats it like any read error
	// and drops the peer.
	ErrRingCorrupt = errors.New("shm: ring record corrupt")
	errRingClosed  = errors.New("shm: ring closed")
	// ErrEvicted is the sticky reader error after the writer cut this
	// reader loose for lagging (or its record stream was overwritten
	// mid-read, the detectable symptom of the same condition). The
	// consumer falls back to its per-link connection.
	ErrEvicted = errors.New("shm: broadcast reader evicted")
)

// bring is the mapped ring. Atomic fields point into the mapped memory,
// visible to every attached process.
type bring struct {
	mem    []byte
	data   []byte
	cap    uint64
	mask   uint64
	nslots int

	tail   *atomic.Uint64
	closed *atomic.Uint32
	wrPark *atomic.Uint32

	// frontier is the exclusive end of the furthest byte the writer has
	// reserved for staging, stored BEFORE any byte under it is copied in
	// (a seqlock-style write-begin marker). A reader validates each
	// copy-out after the fact: bytes at [start, start+n) may have been
	// overwritten only if frontier > start+capacity. For active readers
	// this can never fire — a reservation never reaches past minHead +
	// capacity — so it detects every lap an evicted reader takes.
	frontier *atomic.Uint64
}

func bringSize(capacity uint64, nslots int) int {
	return bringSlotsOff + nslots*bringSlotSize + int(capacity)
}

func (b *bring) slot(i int) []byte {
	off := bringSlotsOff + i*bringSlotSize
	return b.mem[off : off+bringSlotSize]
}

func (b *bring) slotHead(i int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&b.slot(i)[slotHeadOff]))
}

func (b *bring) slotState(i int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&b.slot(i)[slotStateOff]))
}

func (b *bring) slotPark(i int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&b.slot(i)[slotParkOff]))
}

// validCapacity reports whether n is a ring capacity this package maps.
func validCapacity(n uint64) bool {
	return n >= minRingBytes && n <= maxRingBytes && n&(n-1) == 0
}

// initBring stamps a fresh ring header into mem.
func initBring(mem []byte, capacity uint64, nslots int) (*bring, error) {
	if nslots < 1 || nslots > maxBroadcastReaders ||
		len(mem) != bringSize(capacity, nslots) {
		return nil, errRingLayout
	}
	dataOff := bringSlotsOff + nslots*bringSlotSize
	clear(mem[:dataOff])
	binary.LittleEndian.PutUint64(mem[0:8], bringMagic)
	binary.LittleEndian.PutUint64(mem[offCapacity:], capacity)
	binary.LittleEndian.PutUint32(mem[offBMaxReaders:], uint32(nslots))
	return openBring(mem)
}

// openBring validates mem's header and returns cursors over it. It
// accepts arbitrary bytes (the fuzz target feeds it hostile headers), so
// every field is range-checked before use.
func openBring(mem []byte) (*bring, error) {
	if len(mem) < bringSlotsOff+bringSlotSize {
		return nil, errRingLayout
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return nil, errRingLayout
	}
	if binary.LittleEndian.Uint64(mem[0:8]) != bringMagic {
		return nil, errRingLayout
	}
	capacity := binary.LittleEndian.Uint64(mem[offCapacity:])
	if !validCapacity(capacity) {
		return nil, errRingLayout
	}
	nslots := binary.LittleEndian.Uint32(mem[offBMaxReaders:])
	if nslots < 1 || nslots > maxBroadcastReaders {
		return nil, errRingLayout
	}
	if len(mem) != bringSize(capacity, int(nslots)) {
		return nil, errRingLayout
	}
	dataOff := bringSlotsOff + int(nslots)*bringSlotSize
	b := &bring{
		mem:      mem,
		data:     mem[dataOff:],
		cap:      capacity,
		mask:     capacity - 1,
		nslots:   int(nslots),
		tail:     (*atomic.Uint64)(unsafe.Pointer(&mem[offBTail])),
		closed:   (*atomic.Uint32)(unsafe.Pointer(&mem[offClosed])),
		wrPark:   (*atomic.Uint32)(unsafe.Pointer(&mem[offBWrPark])),
		frontier: (*atomic.Uint64)(unsafe.Pointer(&mem[offBFrontier])),
	}
	return b, nil
}

// copyIn writes p into the data region at free-running offset pos,
// wrapping at the edge.
func (b *bring) copyIn(pos uint64, p []byte) {
	i := pos & b.mask
	n := copy(b.data[i:], p)
	if n < len(p) {
		copy(b.data, p[n:])
	}
}

// copyOut reads len(p) bytes from free-running offset pos into p.
func (b *bring) copyOut(pos uint64, p []byte) {
	i := pos & b.mask
	n := copy(p, b.data[i:])
	if n < len(p) {
		copy(p[n:], b.data[:len(p)-n])
	}
}

// minHead returns the slowest active reader's cursor — the writer's
// reclaim bound. With no active readers everything up to tail is
// reclaimable (records are published into the void; a later attacher
// starts at the current tail).
func (b *bring) minHead(tail uint64) uint64 {
	min := tail
	for i := 0; i < b.nslots; i++ {
		if b.slotState(i).Load() == slotActive {
			if h := b.slotHead(i).Load(); h < min {
				min = h
			}
		}
	}
	return min
}

// attach claims a free slot for a new reader joining at tail (the
// writer's *published* cursor). A broadcast group must hold its publish
// lock so the writer cannot reclaim past the new head between the head
// store and the state store; a Conn's dialer attaches before the ring is
// shared. Returns false when every slot is taken.
func (b *bring) attach(tail uint64) (int, bool) {
	for i := 0; i < b.nslots; i++ {
		if b.slotState(i).Load() == slotFree {
			b.slotHead(i).Store(tail)
			b.slotPark(i).Store(0)
			b.slotState(i).Store(slotActive)
			return i, true
		}
	}
	return 0, false
}

// evictSlowest marks the active reader with the smallest head evicted and
// returns its slot. The caller must hold the group's publish lock.
func (b *bring) evictSlowest() (int, bool) {
	slot, found := -1, false
	var min uint64
	for i := 0; i < b.nslots; i++ {
		if b.slotState(i).Load() != slotActive {
			continue
		}
		if h := b.slotHead(i).Load(); !found || h < min {
			slot, min, found = i, h, true
		}
	}
	if !found {
		return 0, false
	}
	b.slotState(slot).Store(slotEvicted)
	return slot, true
}

// freeSlot recycles a slot once its reader's rendezvous socket has
// closed — the reader can no longer be mid-copy by the time its socket
// EOF is observed on the writer side, and even if it were, the torn-read
// check catches an overwrite.
func (b *bring) freeSlot(i int) {
	if i >= 0 && i < b.nslots {
		b.slotState(i).Store(slotFree)
	}
}

// bringWriter is the producer cursor: a comm.FrameSink that stages frame
// bytes directly into the ring and publishes one record per Flush
// (chunked at chunk bytes so oversized trains stream), bounded by the
// slowest active reader. Single-producer: a Conn's writer holds the
// link's write lock, a BroadcastGroup its publish lock.
type bringWriter struct {
	b      *bring
	tail   uint64 // published writer offset (mirrors b.tail)
	staged uint64 // body bytes staged past tail+recHdrSize
	seq    uint32
	chunk  uint64
	err    error

	// limit is the exclusive end of the current reservation: the
	// frontier already covers every byte below it, so staging up to it
	// costs no shared store. reserve raises it at most once per record.
	limit uint64

	// spills counts records force-published mid-train: frame trains
	// larger than the chunk budget (or the free space) streaming through
	// the ring in pieces. Written by the single producer, read by stats
	// snapshots (comm.SpillCounter), hence atomic.
	spills atomic.Uint64

	// waitSpace blocks until minHead(tail) >= need or the ring dies; a
	// BroadcastGroup's evicts the slowest reader after a grace period
	// instead of blocking forever. wakeData wakes a parked reader after
	// a publish. Both are wired to the OS layer's park/wake machinery;
	// tests use spinning defaults.
	waitSpace func(need uint64) error
	wakeData  func(slot int)
}

func newBringWriter(b *bring) *bringWriter {
	w := &bringWriter{b: b, tail: b.tail.Load(), chunk: b.cap / 4}
	w.waitSpace = func(need uint64) error {
		for b.minHead(b.tail.Load()) < need {
			if b.closed.Load() != 0 {
				return errRingClosed
			}
			runtime.Gosched()
		}
		return nil
	}
	w.wakeData = func(int) {}
	return w
}

// reserve extends the reservation from the staging position to the end
// of the record's chunk budget, clipped to the space the slowest active
// reader has freed, and stores it as the frontier. It reports whether any
// byte is reserved.
func (w *bringWriter) reserve() bool {
	limit := w.tail + recHdrSize + w.chunk
	if end := w.b.minHead(w.tail) + w.b.cap; end < limit {
		limit = end
	}
	if limit <= w.tail+recHdrSize+w.staged {
		return false
	}
	w.limit = limit
	w.b.frontier.Store(limit)
	return true
}

func (w *bringWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		pos := w.tail + recHdrSize + w.staged
		if pos >= w.limit && !w.reserve() {
			if err := w.makeRoom(); err != nil {
				return total - len(p), err
			}
			continue
		}
		n := min(uint64(len(p)), w.limit-pos)
		w.b.copyIn(pos, p[:n])
		w.staged += n
		p = p[n:]
	}
	return total, nil
}

// makeRoom runs when nothing more can be reserved: the record has spent
// its chunk budget, or the ring is full. It publishes what is staged, so
// the readers can drain it — otherwise a train larger than the free space
// deadlocks — and, when the ring is full, blocks until at least one byte
// of space frees up.
func (w *bringWriter) makeRoom() error {
	full := w.staged < w.chunk
	if w.staged > 0 {
		w.spills.Add(1)
	}
	if err := w.publish(); err != nil || !full {
		return err
	}
	need := w.tail + recHdrSize + 1
	if need < w.b.cap {
		need = 0
	} else {
		need -= w.b.cap
	}
	if err := w.waitSpace(need); err != nil {
		w.err = err
		return err
	}
	return nil
}

func (w *bringWriter) WriteByte(c byte) error {
	if pos := w.tail + recHdrSize + w.staged; w.err == nil && pos < w.limit {
		w.b.data[pos&w.b.mask] = c
		w.staged++
		return nil
	}
	var buf [1]byte
	buf[0] = c
	_, err := w.Write(buf[:])
	return err
}

// publish seals the staged bytes as one record: backfill the length and
// sequence header, advance the shared tail (the atomic store is the
// release barrier that makes the body visible), and wake every parked
// active reader.
func (w *bringWriter) publish() error {
	if w.err != nil {
		return w.err
	}
	if w.b.closed.Load() != 0 {
		w.err = errRingClosed
		return w.err
	}
	if w.staged == 0 {
		return nil
	}
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.staged))
	binary.LittleEndian.PutUint32(hdr[4:8], w.seq)
	w.b.copyIn(w.tail, hdr[:])
	w.tail += recHdrSize + w.staged
	w.staged = 0
	w.seq++
	w.b.tail.Store(w.tail)
	for i := 0; i < w.b.nslots; i++ {
		if w.b.slotState(i).Load() == slotActive &&
			w.b.slotPark(i).Load() != 0 && w.b.slotPark(i).Swap(0) != 0 {
			w.wakeData(i)
		}
	}
	return nil
}

// Flush publishes the staged record; it is the FrameSink frame-train
// boundary.
func (w *bringWriter) Flush() error { return w.publish() }

// Spills implements comm.SpillCounter: how many records were
// force-published mid-train because the train outgrew the chunk budget
// or the free space. comm surfaces a link's count as
// PeerCoalesceStats.ShmSpillCount.
func (w *bringWriter) Spills() uint64 { return w.spills.Load() }

// bringReader is one reader's cursor: a comm.FrameSource that validates
// record headers and hands out the byte stream records carry. It may join
// mid-stream (adopting the first sequence it observes) and must tolerate
// the writer lapping it after an eviction: every copy out of the data
// region is followed by a torn-read check against the writer's frontier,
// so an overwritten record surfaces as ErrEvicted instead of garbage
// bytes. Single-consumer: exactly one goroutine may use it at a time.
type bringReader struct {
	b         *bring
	slot      int
	pos       uint64 // consumed offset, including record headers
	remaining uint64 // unread body bytes of the current record
	seq       uint32
	started   bool
	err       error

	// waitData blocks until tail > pos (a record is published) or the
	// ring dies; wakeSpace unparks a writer after space is freed.
	waitData  func(pos uint64) error
	wakeSpace func()
}

func newBringReader(b *bring, slot int) *bringReader {
	rd := &bringReader{b: b, slot: slot, pos: b.slotHead(slot).Load()}
	// A reader at offset 0 has seen the stream from its start, so the
	// first record must carry sequence 0.
	rd.started = rd.pos == 0
	rd.waitData = func(pos uint64) error {
		for b.tail.Load() <= pos {
			if b.slotState(slot).Load() == slotEvicted {
				return ErrEvicted
			}
			if b.closed.Load() != 0 {
				if b.tail.Load() > pos {
					return nil
				}
				return errRingClosed
			}
			runtime.Gosched()
		}
		return nil
	}
	rd.wakeSpace = func() {}
	return rd
}

// torn reports whether bytes just copied out from start may have been
// overwritten by the writer. The writer stores its frontier before
// copying bytes in, so if any byte at or past start's ring offset was
// rewritten, the frontier observed here already exceeds start+capacity.
// For an active reader the writer's reservations keep the frontier at or
// below minHead+capacity <= start+capacity, so this never fires; after an
// eviction it detects the writer's lap deterministically.
func (rd *bringReader) torn(start uint64) bool {
	return rd.b.frontier.Load() > start+rd.b.cap
}

func (rd *bringReader) fail(err error) error {
	rd.err = err
	return err
}

// readHeader consumes and validates the next record header. The sequence
// check catches torn or replayed wraparounds; the length checks catch
// corrupt prefixes before they can drive a huge wait or a bogus cursor
// advance.
func (rd *bringReader) readHeader() error {
	if rd.b.slotState(rd.slot).Load() == slotEvicted {
		return rd.fail(ErrEvicted)
	}
	if err := rd.waitData(rd.pos); err != nil {
		return rd.fail(err)
	}
	var hdr [recHdrSize]byte
	rd.b.copyOut(rd.pos, hdr[:])
	if rd.torn(rd.pos) {
		return rd.fail(ErrEvicted)
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	seq := binary.LittleEndian.Uint32(hdr[4:8])
	if !rd.started {
		// Mid-stream join: adopt the stream's sequence at our first
		// record; strict increments are enforced from here on.
		rd.seq = seq
		rd.started = true
	}
	if seq != rd.seq {
		return rd.fail(fmt.Errorf("%w: sequence %d, want %d", ErrRingCorrupt, seq, rd.seq))
	}
	if ln == 0 || uint64(ln) > rd.b.cap-recHdrSize {
		return rd.fail(fmt.Errorf("%w: record length %d", ErrRingCorrupt, ln))
	}
	if rd.pos+recHdrSize+uint64(ln) > rd.b.tail.Load() {
		return rd.fail(fmt.Errorf("%w: record overruns published tail", ErrRingCorrupt))
	}
	rd.pos += recHdrSize
	rd.remaining = uint64(ln)
	rd.seq++
	return nil
}

// release publishes the new head (freeing space behind this reader) and
// wakes a parked writer. Readers release only at record boundaries: a
// head store per byte would bounce the slot's cache line on every uvarint
// of the frame decoder, and records are capped at a quarter ring so the
// writer never starves waiting for an end-of-record release.
func (rd *bringReader) release() {
	rd.b.slotHead(rd.slot).Store(rd.pos)
	if rd.b.wrPark.Load() != 0 && rd.b.wrPark.Swap(0) != 0 {
		rd.wakeSpace()
	}
}

func (rd *bringReader) Read(p []byte) (int, error) {
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
	n := min(uint64(len(p)), rd.remaining)
	start := rd.pos
	rd.b.copyOut(start, p[:n])
	if rd.torn(start) {
		return 0, rd.fail(ErrEvicted)
	}
	rd.pos += n
	rd.remaining -= n
	if rd.remaining == 0 {
		rd.release()
	}
	return int(n), nil
}

func (rd *bringReader) ReadByte() (byte, error) {
	if rd.err != nil {
		return 0, rd.err
	}
	if rd.remaining == 0 {
		if err := rd.readHeader(); err != nil {
			return 0, err
		}
	}
	start := rd.pos
	c := rd.b.data[start&rd.b.mask]
	if rd.torn(start) {
		return 0, rd.fail(ErrEvicted)
	}
	rd.pos++
	rd.remaining--
	if rd.remaining == 0 {
		rd.release()
	}
	return c, nil
}
