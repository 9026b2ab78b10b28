// Single-encode fanout. D3's pipelines are fan-out heavy — one sensor
// frame feeds perception, prediction, logging and recording — yet a naive
// data plane encodes and copies the frame once per subscriber link.
// MulticastTree makes a one-to-many send cost one encode and ~one copy:
//
//   - the frame is encoded once into a pooled, atomically refcounted
//     buffer (broadcastFrame) shared by every destination's write loop;
//     each write loop treats it as a borrowed segment — it writes the
//     bytes into its sink and drops its reference — and the last release
//     returns the buffer to the payload pool;
//   - same-host destinations attached to a shared-memory broadcast ring
//     (a Bus) are covered by a single ring publish instead of one write
//     per link;
//   - same-process destinations whose connection offers the ValueConn
//     capability (the inproc backend) receive the message *value* with no
//     serialization at all.
//
// Ownership rules: a broadcastFrame is created with one reference per
// sharing destination. A destination's reference is consumed either by
// its write loop (after the bytes reach the sink, successfully or not) or
// by the sender when the destination cannot be enqueued. Frames stranded
// in a dead peer's queue are released by the queue drain that follows the
// write loop's exit, and Close sweeps anything the drain raced with, so
// pool accounting balances deterministically once senders are quiescent.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// broadcastFrame is one encoded wire frame shared across every destination
// of a fanout send. buf comes from AcquirePayload; refs counts the
// destinations that have not yet written (or abandoned) it.
type broadcastFrame struct {
	buf   []byte
	typed bool
	refs  atomic.Int32
}

var (
	bcastPool StructPool[broadcastFrame]
	// bcastAcquired/bcastReleased count frames created and fully released.
	// The -race refcount stress test asserts they balance after all links
	// drain: a deficit is a leaked pooled buffer, a surplus would have
	// panicked as a double release.
	bcastAcquired atomic.Uint64
	bcastReleased atomic.Uint64
)

// BroadcastFrameStats reports how many shared fanout frames have been
// created and how many have been fully released back to the pool. With no
// multicast in flight the two are equal.
func BroadcastFrameStats() (acquired, released uint64) {
	return bcastAcquired.Load(), bcastReleased.Load()
}

func newBroadcastFrame(buf []byte, typed bool, refs int32) *broadcastFrame {
	f := bcastPool.Get()
	f.buf, f.typed = buf, typed
	f.refs.Store(refs)
	bcastAcquired.Add(1)
	return f
}

// release drops one destination's reference; the last one recycles the
// buffer. Releasing more references than were acquired is a programming
// error that would hand the pooled buffer to two owners, so it panics
// instead of corrupting a later frame.
func (f *broadcastFrame) release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("comm: broadcast frame released more times than acquired")
	}
	RecyclePayload(f.buf)
	f.buf = nil
	bcastReleased.Add(1)
	bcastPool.Put(f)
}

// frameBuf is a FrameSink over a growable slice, used to capture one
// frame's wire encoding for sharing. Flush is a no-op: the capture is the
// frame-train boundary.
type frameBuf struct{ b []byte }

func (s *frameBuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *frameBuf) WriteByte(c byte) error {
	s.b = append(s.b, c)
	return nil
}

func (s *frameBuf) Flush() error { return nil }

// ReadFrame decodes one binary frame (tagRaw or tagTyped) from fr — the
// same decoding the transport's read loop applies, exported for broadcast
// ring readers that consume a shared frame stream outside a peer
// connection. Gob frames never travel on broadcast rings (they are
// per-peer downgrades), so a tagGob byte is a protocol error here.
func ReadFrame(fr FrameSource) (stream.ID, message.Message, error) {
	tag, err := fr.ReadByte()
	if err != nil {
		return 0, message.Message{}, err
	}
	switch tag {
	case tagRaw:
		return readRawFrame(fr)
	case tagTyped:
		return readTypedFrame(fr)
	}
	return 0, message.Message{}, fmt.Errorf("comm: unexpected frame tag %#x on broadcast stream", tag)
}

// errBusOversize marks a frame too large for a Bus; the sender folds the
// bus destinations back into pairwise sends.
var errBusOversize = errors.New("comm: frame exceeds bus size limit")

// Bus is a shared broadcast sink: one frame written to it reaches every
// reader attached to the underlying medium (a shm SPMC broadcast ring).
// The bus carries binary frames only and performs no per-reader codec
// negotiation, so it must only bridge same-build readers — the cluster
// only attaches its own workers. MaxBytes bounds the frame size the bus
// accepts (0 means unlimited); larger frames spill back to pairwise links
// and are counted.
type Bus struct {
	mu   sync.Mutex
	sink FrameSink
	max  int
	err  error

	spills atomic.Uint64
	frames atomic.Uint64
	bytes  atomic.Uint64
}

// NewBus wraps sink as a broadcast bus. maxBytes caps the frame size the
// bus carries; pass the ring's spill threshold (0 for no cap).
func NewBus(sink FrameSink, maxBytes int) *Bus {
	return &Bus{sink: sink, max: maxBytes}
}

// Spills returns how many frames were too large for the bus and fell back
// to pairwise sends.
func (b *Bus) Spills() uint64 { return b.spills.Load() }

// Stats returns frames and bytes published onto the bus.
func (b *Bus) Stats() (frames, bytes uint64) {
	return b.frames.Load(), b.bytes.Load()
}

// Err returns the sticky write error, if the bus medium has failed.
func (b *Bus) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// write publishes one encoded frame. The error is sticky: once the
// medium fails every later write fails, and the caller falls back to
// pairwise delivery.
func (b *Bus) write(frame []byte) error {
	if b.max > 0 && len(frame) > b.max {
		b.spills.Add(1)
		return errBusOversize
	}
	return b.writeUnbounded(frame)
}

// writeUnbounded is write without the size cap: the frame is published
// however large it is, relying on the underlying sink to chunk it (the shm
// broadcast ring streams oversized trains record by record, counting them
// as spills). Relay republish uses it so a frame beyond the producer-side
// bus cap still rides the ring in a chunked train at the relay instead of
// degrading to per-peer pairwise copies.
func (b *Bus) writeUnbounded(frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	if _, err := b.sink.Write(frame); err != nil {
		b.err = err
		return err
	}
	if err := b.sink.Flush(); err != nil {
		b.err = err
		return err
	}
	b.frames.Add(1)
	b.bytes.Add(uint64(len(frame)))
	return nil
}

// RelayDest is one remote host's share of a relay multicast: Relay names
// the designated relay worker on that host and Cover lists every consumer
// it republishes to (the relay itself included when it consumes the
// stream). Every Cover member must also be a connected peer of the sender:
// when the relay path is unusable — relay disconnected, no capability
// advertised, or the payload has no shareable encoding — the Cover folds
// back into pairwise sends with no loss.
//
// Retained marks a route whose caller keeps a replay window and will
// force-replay it when a schedule change re-elects the relay. For such
// routes a dead relay link does NOT fold into pairwise sends: the relay's
// loss is a contiguous suffix of the stream (TCP and the republish queue
// are FIFO), and folding later frames around it would advance the
// consumers' watermark past the gap, fencing the eventual replay out.
// Static ineligibility (no capability, value link, codec skew) still
// folds — those routes never carried a frame through the relay, so
// ordering is consistent.
type RelayDest struct {
	Relay    string
	Cover    []string
	Retained bool
}

// MulticastTree sends m on stream id to every destination with one encode
// and a shared buffer, under a coalescing deadline shared by every copy
// (the zero hint flushes each copy on queue drain). Destinations come in
// three kinds, any of which may be empty:
//
//   - busPeers are reachable through bus: one publish onto the bus covers
//     all of them. When the frame cannot ride the bus (too large, bus
//     medium dead, or a payload with no binary encoding), busPeers fold
//     into the pairwise set — every bus destination must therefore also
//     be a connected peer. A nil bus folds them at once.
//   - peerNames get the shared-frame pairwise path.
//   - each RelayDest receives exactly one tagRelay envelope (the shared
//     refcounted frame wrapped with its remaining deadline slack) and
//     republishes it to its Cover, so the sender's wire cost is one frame
//     per remote host instead of one per consumer.
//
// It returns how many destinations accepted the message, relay-covered
// consumers included, and the first error encountered; delivery to the
// remaining destinations is still attempted after an error (fanout
// consumers fail independently).
func (t *Transport) MulticastTree(bus *Bus, busPeers, peerNames []string, relays []RelayDest, id stream.ID, m message.Message, hint FlushHint) (int, error) {
	if bus == nil && len(busPeers) > 0 {
		peerNames = append(append(make([]string, 0, len(peerNames)+len(busPeers)), peerNames...), busPeers...)
		busPeers = nil
	}
	if len(peerNames) == 0 && len(busPeers) == 0 && len(relays) == 0 {
		return 0, nil
	}

	// Choose the shared encoding, mirroring writeMsg: raw binary frames
	// are universal; typed frames are shared with peers that advertised
	// the codec (others downgrade to per-peer gob); payloads with no
	// binary encoding have nothing to share.
	var (
		typed   bool
		codecID uint64
		version uint8
		marshal func([]byte) []byte
		rawBody []byte
	)
	shareable := true
	switch {
	case rawEligible(m):
		rawBody, _ = m.Payload.([]byte)
	default:
		if fp, ok := m.Payload.(FramePayload); ok {
			if c := lookupCodec(fp.FrameCodec()); c != nil {
				typed, codecID, version, marshal = true, c.ID, c.Version, fp.MarshalFrame
			} else {
				shareable = false
			}
		} else if d, ok := m.Payload.(time.Duration); ok {
			typed, codecID, version = true, DurationCodecID, 1
			marshal = func(dst []byte) []byte { return AppendVarint(dst, int64(d)) }
		} else {
			shareable = false
		}
	}

	var delivered int
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	closes := m.IsWatermark()
	sendSolo := func(name string) {
		if err := t.SendWithHint(name, id, m, hint); err != nil {
			fail(err)
		} else {
			delivered++
		}
	}

	if !shareable {
		// No peer-independent encoding exists (gob-only payload): every
		// destination pays its own encode, the bus cannot carry it, and a
		// relay has no verbatim bytes to republish (gob encoder state is
		// per-connection) — covered consumers fold into pairwise sends.
		for _, name := range busPeers {
			sendSolo(name)
		}
		for _, name := range peerNames {
			sendSolo(name)
		}
		for _, rd := range relays {
			for _, name := range rd.Cover {
				sendSolo(name)
			}
		}
		return delivered, firstErr
	}

	// The shared encode is lazy: a fanout whose destinations are all
	// ValueConn peers (same-process links) never needs wire bytes at all.
	var sink frameBuf
	encoded := false
	encode := func() error {
		if encoded {
			return nil
		}
		sink.b = AcquirePayload(96 + len(rawBody))[:0]
		var err error
		if typed {
			_, err = writeTypedFrame(&sink, id, m, codecID, version, marshal)
		} else {
			_, err = writeRawFrame(&sink, id, m)
		}
		if err != nil {
			RecyclePayload(sink.b)
			return err
		}
		encoded = true
		return nil
	}

	// One bus publish covers every bus destination; a frame the bus
	// cannot carry spills its destinations into the pairwise set.
	if bus != nil && len(busPeers) > 0 {
		if err := encode(); err != nil {
			return 0, err
		}
		if berr := bus.write(sink.b); berr == nil {
			delivered += len(busPeers)
			t.sent.Add(uint64(len(busPeers)))
			if typed {
				t.typedSent.Add(1)
			} else {
				t.rawSent.Add(1)
			}
		} else {
			peerNames = append(append(make([]string, 0, len(peerNames)+len(busPeers)), peerNames...), busPeers...)
			if !errors.Is(berr, errBusOversize) {
				fail(berr)
			}
		}
	}

	// Partition the relay destinations: a usable relay takes one tagRelay
	// envelope covering its whole host; anything else — relay missing, no
	// capability advertised, a value link (no bytes to wrap), or a typed
	// frame the relay cannot decode — folds its Cover back into the
	// pairwise set, the exact pre-relay behavior.
	peers := *t.peers.Load()
	var relayPeers []*peer
	var relayDests []RelayDest
	var fold []string
	for _, rd := range relays {
		p := peers[rd.Relay]
		if p == nil {
			// The relay link is gone. Retained routes withhold the covered
			// consumers — the caller's replay window recovers the suffix in
			// order once a new relay is elected — while best-effort routes
			// fold into pairwise sends.
			if rd.Retained {
				fail(fmt.Errorf("comm: %s relay %q unreachable, cover deferred to replay", t.name, rd.Relay))
				continue
			}
			fold = append(fold, rd.Cover...)
			continue
		}
		if !p.relay || p.vc != nil || (typed && !p.decodes(codecID, version)) {
			fold = append(fold, rd.Cover...)
			continue
		}
		relayPeers = append(relayPeers, p)
		relayDests = append(relayDests, rd)
	}
	if len(fold) > 0 {
		peerNames = append(append(make([]string, 0, len(peerNames)+len(fold)), peerNames...), fold...)
	}

	// Partition the pairwise destinations: peers that decode the shared
	// encoding take the refcounted frame; ValueConn peers take the value
	// with no bytes at all; codec-skewed peers downgrade to their own
	// gob envelope.
	share := make([]*peer, 0, len(peerNames))
	origTaken := false
	for _, name := range peerNames {
		p := peers[name]
		switch {
		case p == nil:
			fail(fmt.Errorf("comm: %s has no peer %q", t.name, name))
		case p.vc != nil:
			// Value delivery transfers payload ownership to the receiver,
			// and a pooled []byte cannot have two owners: the first value
			// destination takes the original, later ones take a pooled
			// copy. (Typed payloads are shared by value and treated as
			// immutable per the ValueConn contract.)
			mv := m
			copied := false
			if b, ok := m.Payload.([]byte); ok && origTaken {
				mv.Payload = append(AcquirePayload(len(b))[:0], b...)
				copied = true
			}
			if err := t.sendValue(p, outMsg{id: id, m: mv, flushBy: hint.FlushBy}); err != nil {
				if copied {
					RecyclePayload(mv.Payload.([]byte))
				}
				fail(err)
			} else {
				delivered++
				if !copied {
					origTaken = true
				}
			}
		case typed && !p.decodes(codecID, version):
			sendSolo(name)
		default:
			share = append(share, p)
		}
	}
	if len(share) == 0 && len(relayPeers) == 0 {
		if encoded {
			RecyclePayload(sink.b)
		}
		return delivered, firstErr
	}
	if err := encode(); err != nil {
		fail(err)
		return delivered, firstErr
	}

	bf := newBroadcastFrame(sink.b, typed, int32(len(share)+len(relayPeers)))
	for _, p := range share {
		o := outMsg{id: id, bcast: bf, flushBy: hint.FlushBy, closes: closes}
		if err := t.sendFramed(p, o); err != nil {
			// The destination never took ownership: this reference is
			// still the sender's to drop.
			bf.release()
			fail(err)
		} else {
			delivered++
		}
	}
	// Each relay takes one reference and one wire frame — a tagRelay
	// envelope whose remaining slack is stamped at write time — and covers
	// its whole host. When a send fails, best-effort routes fall back to
	// pairwise sends for their Cover; retained routes withhold the Cover
	// instead (see RelayDest), deferring the suffix to the caller's replay.
	for i, p := range relayPeers {
		o := outMsg{id: id, bcast: bf, flushBy: hint.FlushBy, closes: closes, relay: true, cover: relayDests[i].Cover}
		if err := t.sendFramed(p, o); err != nil {
			bf.release()
			fail(err)
			if !relayDests[i].Retained {
				for _, name := range relayDests[i].Cover {
					sendSolo(name)
				}
			}
		} else {
			delivered += len(relayDests[i].Cover)
		}
	}
	// bufown's single-owner model cannot see refcounts: bf starts with
	// len(share)+len(relayPeers) references (at least one, guarded above)
	// and every loop iteration transfers one to the destination or
	// releases it on send failure, so nothing is live here.
	//erdos:allow bufown frame refs equal share+relay count; each iteration transfers or releases exactly one
	return delivered, firstErr
}

// RepublishWithHint re-broadcasts one received wire frame to local
// consumers at a relay: ring members are covered by a single unbounded bus
// publish (a frame beyond the producer-side cap streams as a chunked
// train), the rest take the refcounted shared-frame pairwise path, every
// copy under one coalescing deadline — at a relay, the envelope's
// remaining slack minus time spent queued. It takes ownership of frame (a
// pooled buffer, the complete tagRaw/tagTyped encoding). Unlike
// MulticastTree it never re-encodes: the frame is the producer's shared
// encoding, so every destination must speak it — a missing peer, a
// ValueConn link, or codec skew is an error rather than a downgrade (the
// cluster only relays between same-build workers).
func (t *Transport) RepublishWithHint(bus *Bus, busPeers, peerNames []string, frame []byte, typed bool, id stream.ID, hint FlushHint) (int, error) {
	var delivered int
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	if bus == nil && len(busPeers) > 0 {
		peerNames = append(append(make([]string, 0, len(peerNames)+len(busPeers)), peerNames...), busPeers...)
		busPeers = nil
	}
	if bus != nil && len(busPeers) > 0 {
		// writeUnbounded, not write: the relay's ring chunks any size into
		// a spill train, so an oversize frame still costs one wire copy
		// from the producer and rides the ring here.
		if berr := bus.writeUnbounded(frame); berr == nil {
			delivered += len(busPeers)
			t.sent.Add(uint64(len(busPeers)))
		} else {
			peerNames = append(append(make([]string, 0, len(peerNames)+len(busPeers)), peerNames...), busPeers...)
			fail(berr)
		}
	}

	peers := *t.peers.Load()
	share := make([]*peer, 0, len(peerNames))
	for _, name := range peerNames {
		p := peers[name]
		switch {
		case p == nil:
			fail(fmt.Errorf("comm: %s has no peer %q", t.name, name))
		case p.vc != nil:
			fail(fmt.Errorf("comm: relay republish to value link %q", name))
		default:
			share = append(share, p)
		}
	}

	bf := newBroadcastFrame(frame, typed, int32(len(share))+1)
	closes := frameCloses(frame)
	for _, p := range share {
		o := outMsg{id: id, bcast: bf, flushBy: hint.FlushBy, closes: closes}
		if err := t.sendFramed(p, o); err != nil {
			bf.release()
			fail(err)
		} else {
			delivered++
		}
	}
	// The +1 reference is the caller's: releasing it here frees the frame
	// when share is empty (bus-only republish) and otherwise defers the
	// recycle to the last write loop — uniform ownership either way.
	bf.release()
	t.republished.Add(uint64(delivered))
	return delivered, firstErr
}
