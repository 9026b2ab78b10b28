// BroadcastGroup and JoinBroadcast: the OS-facing half of a broadcast
// ring with several reader slots. A producer creates one group per host
// for its broadcast-eligible streams; each same-host consumer joins over
// a unix rendezvous socket and maps the shared ring file. The producer
// encodes every fanout frame into the ring exactly once; N readers copy it
// out through their own cursors. The per-member socket carries the
// park/wake protocol and liveness, exactly like a Conn's — and doubles as
// the eviction signal: when a lagging reader is cut loose the producer
// closes its socket, and the reader surfaces ErrEvicted (or EOF) so the
// layer above falls back to its per-link connection.
//
// Unlike a Conn's rendezvous, the ring file is NOT unlinked after setup:
// late joiners must still be able to map it, so it lives until the group
// closes.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
)

// DefaultEvictAfter is how long the broadcast writer will block on a
// full ring waiting for its slowest reader before evicting it. Short
// enough that one wedged consumer cannot stall the whole fanout; long
// enough that a reader merely descheduled for a tick survives.
const DefaultEvictAfter = 200 * time.Millisecond

// BroadcastGroup is the producer's end of a broadcast ring: one
// shared ring file plus a rendezvous socket that same-host consumers
// join through. Sink() exposes the ring as a comm.FrameSink suitable
// for comm.NewBus; all sink and membership operations serialize on the
// group's publish lock.
type BroadcastGroup struct {
	b        *Backend
	ln       net.Listener
	sockPath string
	ringPath string
	br       *bring
	w        *bringWriter

	// mu is the publish lock: it covers every sink operation and every
	// slot attach/evict, so a new reader's head is always installed at a
	// stable published tail.
	mu sync.Mutex

	// memMu guards members only. Lock order: mu before memMu; the member
	// sockLoops take memMu alone, so a parked writer holding mu never
	// blocks them.
	memMu   sync.Mutex
	members map[int]*busMember

	spaceWake chan struct{}
	dead      chan struct{}
	deadOnce  sync.Once
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	evictions atomic.Uint64

	// EvictAfter overrides DefaultEvictAfter when set before first use.
	EvictAfter time.Duration
}

type busMember struct {
	name string
	slot int
	sock net.Conn
}

// NewBroadcastGroup creates a broadcast ring with maxReaders slots
// (DefaultBroadcastReaders if <= 0) and starts accepting joiners on a
// fresh rendezvous socket under the backend's Dir.
func (b *Backend) NewBroadcastGroup(maxReaders int) (*BroadcastGroup, error) {
	capacity, err := b.ringBytes()
	if err != nil {
		return nil, err
	}
	if maxReaders <= 0 {
		maxReaders = DefaultBroadcastReaders
	}
	if maxReaders > maxBroadcastReaders {
		return nil, fmt.Errorf("shm: %d broadcast readers exceeds limit %d",
			maxReaders, maxBroadcastReaders)
	}
	ringPath, br, err := createRing(b.dir(), capacity, maxReaders)
	if err != nil {
		return nil, err
	}
	ln, err := b.Listen("")
	if err != nil {
		discard(br)
		os.Remove(ringPath)
		return nil, err
	}
	ul := ln.(*listener)
	g := &BroadcastGroup{
		b:         b,
		ln:        ul.ln,
		sockPath:  ul.path,
		ringPath:  ringPath,
		br:        br,
		members:   map[int]*busMember{},
		spaceWake: make(chan struct{}, 1),
		dead:      make(chan struct{}),
	}
	g.w = newBringWriter(br)
	g.w.waitSpace = g.waitSpace
	g.w.wakeData = g.wakeMember
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr is the rendezvous socket path consumers pass to JoinBroadcast.
func (g *BroadcastGroup) Addr() string { return g.sockPath }

// Sink returns the group's FrameSink: every Write/Flush publishes to all
// active readers at once.
func (g *BroadcastGroup) Sink() comm.FrameSink { return groupSink{g} }

// groupSink serializes sink access on the group's publish lock so
// attach/evict always observe a stable published tail.
type groupSink struct{ g *BroadcastGroup }

func (s groupSink) Write(p []byte) (int, error) {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	return s.g.w.Write(p)
}

func (s groupSink) WriteByte(c byte) error {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	return s.g.w.WriteByte(c)
}

func (s groupSink) Flush() error {
	s.g.mu.Lock()
	defer s.g.mu.Unlock()
	return s.g.w.Flush()
}

// Members returns the names of currently active readers. A reader that
// was evicted or died is gone from the snapshot, so the caller's next
// fanout partitions it back onto per-link delivery.
func (g *BroadcastGroup) Members() []string {
	g.memMu.Lock()
	defer g.memMu.Unlock()
	names := make([]string, 0, len(g.members))
	for _, m := range g.members {
		if g.br.slotState(m.slot).Load() == slotActive {
			names = append(names, m.name)
		}
	}
	return names
}

// MemberSet is Members as a set, for fanout partitioning.
func (g *BroadcastGroup) MemberSet() map[string]bool {
	g.memMu.Lock()
	defer g.memMu.Unlock()
	set := make(map[string]bool, len(g.members))
	for _, m := range g.members {
		if g.br.slotState(m.slot).Load() == slotActive {
			set[m.name] = true
		}
	}
	return set
}

// Evictions reports how many lagging readers the writer has cut loose.
func (g *BroadcastGroup) Evictions() uint64 { return g.evictions.Load() }

// Spills reports how many records the writer force-published mid-train
// because a frame train outgrew the chunk budget or the free space.
func (g *BroadcastGroup) Spills() uint64 { return g.w.Spills() }

func (g *BroadcastGroup) markDead() {
	g.deadOnce.Do(func() { close(g.dead) })
}

// Close marks the ring closed (readers drain what is published, then see
// EOF), stops the accept loop, severs every member socket, and removes
// the ring file. The mapping itself outlives Close — a reader goroutine
// mid-copy must never touch unmapped pages — and is released once
// nothing references the ring (see discard).
func (g *BroadcastGroup) Close() error {
	g.closeOnce.Do(func() {
		g.br.closed.Store(1)
		g.markDead()
		g.closeErr = g.ln.Close()
		g.memMu.Lock()
		for _, m := range g.members {
			m.sock.Close()
		}
		g.memMu.Unlock()
		os.Remove(g.ringPath)
		g.wg.Wait()
	})
	return g.closeErr
}

func (g *BroadcastGroup) acceptLoop() {
	defer g.wg.Done()
	for {
		sock, err := g.ln.Accept()
		if err != nil {
			return
		}
		if err := g.acceptJoin(sock); err != nil {
			sock.Close()
		}
	}
}

// acceptJoin runs the join rendezvous: validate the hello, attach a slot
// at the current published tail, and send the reader everything it needs
// to map the ring.
func (g *BroadcastGroup) acceptJoin(sock net.Conn) error {
	_ = sock.SetDeadline(time.Now().Add(rendezvousTimeout))
	if err := readHello(sock); err != nil {
		return err
	}
	name, err := readString(sock, 1024)
	if err != nil {
		return err
	}

	g.mu.Lock()
	slot, ok := g.br.attach(g.br.tail.Load())
	g.mu.Unlock()
	if !ok {
		_, _ = sock.Write([]byte{0})
		return errors.New("shm: broadcast ring has no free reader slots")
	}

	// The member is listed before the reply goes out, so a reader whose
	// JoinBroadcast returns is already in Members. Nothing writes to its
	// socket meanwhile: data wakes go only to readers that parked, and a
	// reader parks only after mapping the ring from the reply.
	m := &busMember{name: name, slot: slot, sock: sock}
	g.memMu.Lock()
	g.members[slot] = m
	g.memMu.Unlock()
	reply := make([]byte, 0, 1+4+8+4+2+len(g.ringPath))
	reply = append(reply, 1)
	reply = binary.LittleEndian.AppendUint32(reply, uint32(slot))
	reply = binary.LittleEndian.AppendUint64(reply, g.br.cap)
	reply = binary.LittleEndian.AppendUint32(reply, uint32(g.br.nslots))
	reply = appendString(reply, g.ringPath)
	if _, err := sock.Write(reply); err != nil {
		g.memMu.Lock()
		delete(g.members, slot)
		g.memMu.Unlock()
		g.br.freeSlot(slot)
		return err
	}
	_ = sock.SetDeadline(time.Time{})
	g.wg.Add(1)
	go g.memberLoop(m)
	return nil
}

// memberLoop drains a member's wake bytes ("I freed space") and recycles
// its slot when the socket dies — clean leave and eviction both end
// here. A freed slot may be re-attached while the departed reader's last
// in-flight release is still landing; that stale head store is always
// <= the new reader's join position, so reclaim only ever errs
// conservative (the writer waits on a too-small head, never overwrites
// live bytes).
func (g *BroadcastGroup) memberLoop(m *busMember) {
	defer g.wg.Done()
	drainWakes(m.sock, nil, g.spaceWake)
	g.memMu.Lock()
	delete(g.members, m.slot)
	g.memMu.Unlock()
	g.br.freeSlot(m.slot)
	// The departed reader's head no longer bounds reclaim; unblock a
	// writer that was waiting on it the way a reader's release does
	// (park's waker half): signal only if the swap finds the park word
	// set.
	if g.br.wrPark.Swap(0) != 0 {
		signal(g.spaceWake)
	}
	m.sock.Close()
}

// wakeMember delivers a data wake to the parked reader in slot.
func (g *BroadcastGroup) wakeMember(slot int) {
	g.memMu.Lock()
	m := g.members[slot]
	g.memMu.Unlock()
	if m != nil {
		_, _ = m.sock.Write(wakeDataMsg)
	}
}

// waitSpace blocks until the slowest active reader frees enough ring
// space, evicting it each time it stays the bottleneck for EvictAfter.
// The eviction timer is policy, not a poll, and exists only while the
// writer is parked. Called with the publish lock held (sink ops own it),
// which is exactly what evictSlowest requires.
func (g *BroadcastGroup) waitSpace(need uint64) error {
	br := g.br
	ready := func() bool {
		return br.minHead(br.tail.Load()) >= need || br.closed.Load() != 0
	}
	if ready() {
		return nil
	}
	evictAfter := g.EvictAfter
	if evictAfter <= 0 {
		evictAfter = DefaultEvictAfter
	}
	evict := time.NewTimer(evictAfter)
	defer evict.Stop()
	for {
		park(br.wrPark, g.spaceWake, g.dead, evict.C, ready)
		switch {
		case br.minHead(br.tail.Load()) >= need:
			return nil
		case br.closed.Load() != 0:
			return errRingClosed
		}
		if slot, ok := br.evictSlowest(); ok {
			g.evictions.Add(1)
			g.memMu.Lock()
			m := g.members[slot]
			g.memMu.Unlock()
			if m != nil {
				// memberLoop sees the close, frees the slot, and
				// wakes the writer; the reader surfaces ErrEvicted.
				m.sock.Close()
			} else {
				g.br.freeSlot(slot)
			}
		}
		evict.Reset(evictAfter)
	}
}

// BusReader is a consumer's end of a broadcast ring: a comm.FrameSource
// over the shared record stream. Decode frames from it with
// comm.ReadFrame. A reader that lags until eviction gets a sticky
// ErrEvicted; the caller then falls back to its per-link connection.
type BusReader struct {
	wakeSock
	br *bring
	rd *bringReader
}

// JoinBroadcast attaches to the broadcast group listening at the
// rendezvous socket addr, identifying as name.
func JoinBroadcast(addr, name string) (*BusReader, error) {
	sock, err := net.Dial("unix", addr)
	if err != nil {
		return nil, err
	}
	r, err := joinBroadcast(sock, name)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("shm: join broadcast %s: %w", addr, err)
	}
	return r, nil
}

func joinBroadcast(sock net.Conn, name string) (*BusReader, error) {
	if name == "" || len(name) > 1024 {
		return nil, fmt.Errorf("bad reader name %q", name)
	}
	_ = sock.SetDeadline(time.Now().Add(rendezvousTimeout))
	msg := appendString(appendHello(make([]byte, 0, 8+1+2+len(name))), name)
	if _, err := sock.Write(msg); err != nil {
		return nil, err
	}
	var status [1]byte
	if _, err := io.ReadFull(sock, status[:]); err != nil {
		return nil, err
	}
	if status[0] != 1 {
		return nil, fmt.Errorf("join refused (status %d)", status[0])
	}
	var hdr [4 + 8 + 4]byte
	if _, err := io.ReadFull(sock, hdr[:]); err != nil {
		return nil, err
	}
	slot := binary.LittleEndian.Uint32(hdr[0:4])
	capacity := binary.LittleEndian.Uint64(hdr[4:12])
	nslots := binary.LittleEndian.Uint32(hdr[12:16])
	if !validCapacity(capacity) {
		return nil, fmt.Errorf("bad ring capacity %d", capacity)
	}
	if nslots < 1 || nslots > maxBroadcastReaders || slot >= nslots {
		return nil, fmt.Errorf("bad slot %d of %d", slot, nslots)
	}
	path, err := readString(sock, 4096)
	if err != nil {
		return nil, err
	}
	br, err := openRingFile(path, bringSize(capacity, int(nslots)))
	if err != nil {
		return nil, err
	}
	_ = sock.SetDeadline(time.Time{})
	r := &BusReader{br: br, rd: newBringReader(br, int(slot))}
	r.rd.waitData = func(pos uint64) error { return r.waitData(br, r.rd.slot, pos) }
	r.rd.wakeSpace = func() { r.wake(wakeSpaceMsg) }
	r.start(sock)
	return r, nil
}

// Read implements comm.FrameSource (io.Reader half).
func (r *BusReader) Read(p []byte) (int, error) { return r.rd.Read(p) }

// ReadByte implements comm.FrameSource (io.ByteReader half).
func (r *BusReader) ReadByte() (byte, error) { return r.rd.ReadByte() }

// Close leaves the group: the producer sees the socket EOF and frees
// this reader's slot. The mapping is released once nothing references
// the ring, never under a goroutine mid-copy.
func (r *BusReader) Close() error { return r.close() }
