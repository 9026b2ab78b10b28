// Package comm implements ERDOS' data plane (§6.1 of the paper): workers
// exchange stream messages over TCP sessions established amongst themselves,
// while operators colocated on a worker communicate references through the
// in-process broadcaster (zero copy).
//
// Wire format: after a gob handshake, each connection carries a sequence of
// tagged frames. Watermarks and []byte data payloads — the sensor-frame hot
// path — travel as length-prefixed binary frames with no reflection at all;
// payload types implementing FramePayload (with a codec registered via
// RegisterCodec) travel as versioned typed frames, also reflection-free; any
// other payload type falls back to a gob-encoded Envelope frame and must be
// registered with RegisterPayload. Header encoding uses pooled scratch
// buffers and payload bytes are written straight from the message, so the
// fast path costs one allocation on the receive side (the payload) and none
// on the send side.
//
// The write loop coalesces small frames per peer into one flush: hinted data
// frames (those carrying a FlushHint) may wait briefly for company, bounded
// by a byte budget, a hold cap and their deadline slack; a watermark — the
// last message of its timestamp on its stream — and any unhinted frame
// flush as soon as the queue drains, exactly like the pre-coalescing
// behavior.
//
// The handshake carries codec negotiation: each side advertises its
// registered typed-frame codec IDs and versions, and the sender downgrades a
// payload to the gob Envelope path per peer when the receiver cannot decode
// the local typed encoding (unknown codec or older version) — version-skewed
// builds interoperate instead of dropping the connection. Connections are
// removed from the peer table when they die, so a later Dial (reconnect with
// backoff after a failure) can re-establish the pair.
package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// RegisterPayload registers a payload type for transmission between
// workers. []byte and time.Duration are pre-registered.
func RegisterPayload(v any) { gob.Register(v) }

func init() {
	gob.Register(time.Duration(0))
}

// Frame tags. tagRaw frames carry watermarks and []byte data payloads in
// plain binary; tagGob frames carry an Envelope through gob's type registry;
// tagTyped frames carry a FramePayload body encoded by a registered Codec;
// tagRelay frames wrap a complete tagRaw/tagTyped frame together with its
// remaining deadline slack, addressed to a relay worker that republishes
// the inner frame to its co-host consumers (one wire copy per remote host
// instead of one per consumer).
const (
	tagRaw   byte = 0x01
	tagGob   byte = 0x02
	tagTyped byte = 0x03
	tagRelay byte = 0x04
)

// maxFramePayload bounds the declared body length of raw and typed frames
// so a corrupt length prefix cannot drive an arbitrarily large allocation.
const maxFramePayload = 64 << 20

// Envelope is the gob wire representation of one stream message; only
// messages that cannot take the binary fast path travel as Envelopes.
type Envelope struct {
	Stream uint64
	Kind   uint8
	L      uint64
	C      []uint64
	Top    bool
	// Raw carries []byte payloads directly.
	Raw    []byte
	HasRaw bool
	// Obj carries any other payload via gob's type registry.
	Obj    any
	HasObj bool
}

// ToEnvelope converts a stream message for the wire.
func ToEnvelope(id stream.ID, m message.Message) Envelope {
	env := Envelope{
		Stream: uint64(id),
		Kind:   uint8(m.Kind),
		L:      m.Timestamp.L,
		C:      m.Timestamp.C,
		Top:    m.Timestamp.IsTop(),
	}
	if m.IsData() {
		if b, ok := m.Payload.([]byte); ok {
			env.Raw, env.HasRaw = b, true
		} else {
			env.Obj, env.HasObj = m.Payload, true
		}
	}
	return env
}

// FromEnvelope reconstructs the stream ID and message.
func FromEnvelope(env Envelope) (stream.ID, message.Message) {
	var ts timestamp.Timestamp
	if env.Top {
		ts = timestamp.Top()
	} else {
		ts = timestamp.New(env.L, env.C...)
	}
	m := message.Message{Kind: message.Kind(env.Kind), Timestamp: ts}
	switch {
	case env.HasRaw:
		m.Payload = env.Raw
	case env.HasObj:
		m.Payload = env.Obj
	}
	return stream.ID(env.Stream), m
}

// Handler consumes messages received from remote workers.
type Handler func(from string, id stream.ID, m message.Message)

// Transport is one worker's endpoint in the data plane mesh.
type Transport struct {
	name    string
	handler Handler // immutable after Listen

	// listeners holds one bound listener per backend; addrs maps each
	// backend scheme to its dialable address and backends to its Backend.
	// All three are immutable after Listen.
	listeners []Listener
	addrs     map[string]string
	backends  map[string]Backend

	// peers is a copy-on-write snapshot: Send looks a peer up without any
	// lock; mu serializes snapshot replacement (connect/close only).
	peers  atomic.Pointer[map[string]*peer]
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	opts   options

	// graveyard holds dead queued peers whose out channel may still
	// receive a racing enqueue after the write-loop drain (the sender's
	// select can commit against a closed done). Close sweeps it so
	// broadcast-frame and pool accounting balances once senders are
	// quiescent.
	graveyard []*peer

	sent, received atomic.Uint64

	// Per-frame-kind counters: the data plane is gob-free exactly when
	// gobSent/gobRecv stay at zero after the handshake.
	rawSent, typedSent, gobSent atomic.Uint64
	rawRecv, typedRecv, gobRecv atomic.Uint64

	// Relay telemetry: relaySent counts tagRelay envelopes shipped to relay
	// peers, relayRecv envelopes received, and republished counts the
	// destinations covered by RepublishWithHint calls on this transport
	// (the relay side's fanout contribution).
	relaySent, relayRecv, republished atomic.Uint64

	// Coalescing telemetry: flushes counts bw.Flush calls, coalesced
	// counts frames that shared a flush with an earlier frame, and
	// lateFlushes counts flushes that completed after the earliest
	// FlushBy of a held frame — i.e. deadline-slack violations caused by
	// holding, which the deadline-stress test asserts never happen.
	flushes, coalesced, lateFlushes atomic.Uint64
}

// FrameStats breaks the frame counters down by wire encoding.
type FrameStats struct {
	Raw   uint64
	Typed uint64
	Gob   uint64
}

// SentFrames returns how many frames of each encoding were written.
func (t *Transport) SentFrames() FrameStats {
	return FrameStats{Raw: t.rawSent.Load(), Typed: t.typedSent.Load(), Gob: t.gobSent.Load()}
}

// ReceivedFrames returns how many frames of each encoding were decoded.
func (t *Transport) ReceivedFrames() FrameStats {
	return FrameStats{Raw: t.rawRecv.Load(), Typed: t.typedRecv.Load(), Gob: t.gobRecv.Load()}
}

// CoalesceStats returns flush batching telemetry: total flushes, frames
// that rode along with an earlier frame in the same flush, and flushes
// that completed after a held frame's FlushBy.
func (t *Transport) CoalesceStats() (flushes, coalesced, lateFlushes uint64) {
	return t.flushes.Load(), t.coalesced.Load(), t.lateFlushes.Load()
}

// RelayStats returns relay-multicast telemetry: tagRelay envelopes sent to
// relay peers, envelopes received for republish, and the cumulative count
// of destinations this transport covered via RepublishWithHint.
func (t *Transport) RelayStats() (sent, received, republished uint64) {
	return t.relaySent.Load(), t.relayRecv.Load(), t.republished.Load()
}

// PeerCoalesceStats is one peer link's coalescing telemetry: cumulative
// frame and flush counters plus the link's hold cap. Heartbeats ship these
// to the leader, which uses them as the data-plane congestion signal when
// placing operators.
type PeerCoalesceStats struct {
	Frames    uint64 // frames encoded onto this link
	Bytes     uint64 // encoded bytes
	Flushes   uint64 // bw.Flush calls
	Coalesced uint64 // frames that shared a flush with an earlier frame
	// HoldNs is the longest a hinted data frame may wait for company on
	// this link, nanoseconds; zero on links with no write loop (rings and
	// value links publish every send at once).
	HoldNs int64
	// ShmSpillCount counts ring records force-published mid-train on this
	// link — frame trains larger than the ring's chunk budget streaming
	// through in pieces. Zero on non-ring links.
	ShmSpillCount uint64
	// RelayFrames counts tagRelay envelopes shipped on this link: each one
	// is a whole remote host's fanout riding a single wire copy, so a hot
	// value here marks the link as a fanout trunk.
	RelayFrames uint64
}

// PeerCoalesceStats returns per-link coalescing telemetry keyed by peer
// name. The snapshot is lock-free and monotonic per counter, but not
// atomic across fields.
func (t *Transport) PeerCoalesceStats() map[string]PeerCoalesceStats {
	peers := *t.peers.Load()
	out := make(map[string]PeerCoalesceStats, len(peers))
	for name, p := range peers {
		st := PeerCoalesceStats{
			Frames:      p.statFrames.Load(),
			Bytes:       p.statBytes.Load(),
			Flushes:     p.statFlushes.Load(),
			Coalesced:   p.statCoalesced.Load(),
			RelayFrames: p.statRelay.Load(),
		}
		if !p.direct && p.vc == nil {
			st.HoldNs = int64(maxCoalesceHold)
		}
		if sc, ok := p.fw.(SpillCounter); ok {
			st.ShmSpillCount = sc.Spills()
		}
		out[name] = st
	}
	return out
}

// FlushHint bounds how long the transport may hold a data frame in the
// per-peer coalescing buffer. The zero hint means "no slack": the frame is
// flushed as soon as the write queue drains. A hint never delays a
// watermark: it closes its timestamp, so it flushes on drain together with
// whatever data it finds buffered.
type FlushHint struct {
	// FlushBy is the absolute instant by which the frame must be on the
	// wire, typically the producing operator's timestamp deadline.
	FlushBy time.Time
}

type outMsg struct {
	id stream.ID
	m  message.Message
	// flushBy is the frame's coalescing deadline; zero means flush on
	// queue drain.
	flushBy time.Time
	// closes marks a watermark frame: the last message of its timestamp on
	// its stream. Nothing queued after it can usefully share its flush and
	// the receiver's watermark callback waits for it, so it flushes on
	// queue drain whatever its hint.
	closes bool
	// bcast, when set, is a pre-encoded fanout frame shared with other
	// destinations: the write loop copies its bytes into the sink as a
	// borrowed segment and releases this destination's reference.
	bcast *broadcastFrame
	// relay marks a bcast frame addressed to a relay worker: the write
	// loop wraps the shared bytes in a tagRelay envelope carrying the
	// remaining deadline slack and the cover list — the consumers the
	// relay republishes to. Addressing explicitly (instead of letting the
	// relay consult its own schedule) keeps delivery exact across epoch
	// skew: a consumer parked behind a replay barrier is simply absent
	// from the cover until the producer includes it.
	relay bool
	cover []string
}

type peer struct {
	name string
	conn net.Conn
	enc  *gob.Encoder
	fw   FrameSink
	// scheme names the backend this link rides ("tcp", "shm"); immutable.
	scheme string
	// direct marks a link whose conn provides its own frame buffers (an
	// unwrapped ring conn): sends are framed synchronously in the caller
	// under wmu instead of hopping through out and the writeLoop.
	direct bool
	// vc, when non-nil, is the connection's same-process value capability:
	// sends hand message values through it with no serialization, and a
	// value loop (not the byte read loop) delivers inbound values.
	vc   ValueConn
	wmu  sync.Mutex
	out  chan outMsg
	done chan struct{}
	// codecs is the remote side's codec advertisement from the handshake
	// (id -> newest version it decodes); immutable after the handshake.
	// nil means the peer predates negotiation and is assumed to share our
	// registry (same-build cluster).
	codecs map[uint64]uint8
	// relay records the peer's hello.Relay advertisement: it registered a
	// relay handler, so tagRelay envelopes sent to it will be republished
	// rather than dropped. Immutable after the handshake.
	relay bool
	once  sync.Once

	// Published telemetry for PeerCoalesceStats readers (heartbeats): the
	// writeLoop stores, anyone loads.
	statFrames, statBytes, statFlushes, statCoalesced atomic.Uint64
	// statRelay counts tagRelay envelopes written on this link.
	statRelay atomic.Uint64
}

// close is idempotent: the read loop, the write loop, Disconnect and Close
// can all race to tear a connection down.
func (p *peer) close() {
	p.once.Do(func() {
		close(p.done)
		p.conn.Close()
	})
}

// CodecAd advertises one registered codec in the hello handshake.
type CodecAd struct {
	ID  uint64
	Ver uint8
}

type hello struct {
	Name string
	// Codecs lists the typed-frame codecs this build decodes. A sender
	// consults the peer's advertisement before choosing the typed path and
	// downgrades to gob when the peer lacks the codec or runs an older
	// version — mixed builds interoperate instead of dropping frames.
	Codecs []CodecAd
	// Relay advertises that this transport registered a RelayHandler and
	// will republish tagRelay envelopes to its co-host consumers. Builds
	// that predate relay multicast decode hello through gob, which ignores
	// unknown fields, and simply never advertise — senders fold their
	// covered consumers back into pairwise links.
	Relay bool
}

// ConnHook observes and may wrap data-plane connections as they are
// established, before the handshake runs. Fault-injection harnesses use it
// to sever, delay or corrupt specific links; a hook that also implements
// PeerNamer learns which worker each connection belongs to.
type ConnHook interface {
	WrapConn(c net.Conn) net.Conn
}

// PeerNamer is an optional ConnHook extension: NamePeer is called after the
// handshake with the wrapped connection and the remote worker's name.
type PeerNamer interface {
	NamePeer(c net.Conn, peer string)
}

// extraBackend is one WithBackend registration: a backend plus the address
// its listener binds.
type extraBackend struct {
	b    Backend
	addr string
}

type options struct {
	hook ConnHook
	// codecOK filters which registered codecs are advertised; nil means
	// all of them. Tests use it to simulate a build missing a codec.
	codecOK func(id uint64) bool
	// backends are additional byte transports to listen on besides tcp.
	backends []extraBackend
	// relayHandler, when set, receives tagRelay envelopes and owns their
	// republish; its presence is what the hello advertises as Relay.
	relayHandler RelayHandler
}

// Option configures Listen.
type Option func(*options)

// WithConnHook installs a fault-injection hook on every connection the
// transport establishes or accepts.
func WithConnHook(h ConnHook) Option {
	return func(o *options) { o.hook = h }
}

// WithCodecFilter restricts which registered codecs the transport
// advertises in its handshake, simulating a build without them. Frames for
// filtered codecs still decode locally if received; the filter only shapes
// what remote senders are told.
func WithCodecFilter(ok func(id uint64) bool) Option {
	return func(o *options) { o.codecOK = ok }
}

// WithBackend adds a byte-transport backend besides the default TCP one:
// the transport listens on it at addr (backend-specific format; "" lets
// the backend pick) and Dial targets prefixed with its scheme ride it.
func WithBackend(b Backend, addr string) Option {
	return func(o *options) { o.backends = append(o.backends, extraBackend{b: b, addr: addr}) }
}

// RelayHandler consumes one relay envelope: the producer's cover list (the
// consumers — this worker possibly among them — the envelope must reach),
// a lazy decoder for the inner stream message, the complete inner wire
// frame (tagRaw or tagTyped, from the payload pool) for verbatim
// republish, whether it is typed, and the re-derived coalescing hint — the
// producer's remaining slack measured against this worker's clock at
// arrival, so time spent inside the relay automatically shrinks the
// downstream hint. The message is decoded on demand rather than eagerly: a
// relay that is not itself a consumer republishes the verbatim bytes
// without ever paying the payload copy, so decode is only called when the
// cover includes the relay. decode reads from frame, so it must be called
// before frame's ownership is transferred (RepublishWithHint may recycle
// it); the returned message is the caller's to release or deliver. The
// handler owns frame (recycle or hand it to RepublishWithHint); it runs on
// the connection's read goroutine, so a slow handler backpressures the
// producer link.
type RelayHandler func(from string, id stream.ID, cover []string, decode func() (message.Message, error), frame []byte, typed bool, hint FlushHint)

// WithRelayHandler registers the transport as a relay: its hello advertises
// the capability, and inbound tagRelay envelopes are handed to h instead of
// the ordinary message handler.
func WithRelayHandler(h RelayHandler) Option {
	return func(o *options) { o.relayHandler = h }
}

// Listen starts a transport for worker name on addr (use "127.0.0.1:0" to
// pick a free port). handler receives every inbound message.
func Listen(name, addr string, handler Handler, opts ...Option) (*Transport, error) {
	t := &Transport{name: name, handler: handler}
	for _, o := range opts {
		o(&t.opts)
	}
	t.addrs = make(map[string]string, 1+len(t.opts.backends))
	t.backends = make(map[string]Backend, 1+len(t.opts.backends))
	schemes := make([]string, 0, 1+len(t.opts.backends))
	bind := func(b Backend, addr string) error {
		ln, err := b.Listen(addr)
		if err != nil {
			return err
		}
		t.listeners = append(t.listeners, ln)
		t.addrs[b.Scheme()] = ln.Addr()
		t.backends[b.Scheme()] = b
		schemes = append(schemes, b.Scheme())
		return nil
	}
	if err := bind(tcpBackend{}, addr); err != nil {
		return nil, err
	}
	for _, eb := range t.opts.backends {
		if err := bind(eb.b, eb.addr); err != nil {
			for _, ln := range t.listeners {
				ln.Close()
			}
			return nil, err
		}
	}
	empty := map[string]*peer{}
	t.peers.Store(&empty)
	for i, ln := range t.listeners {
		t.wg.Add(1)
		go t.acceptLoop(ln, schemes[i])
	}
	return t, nil
}

// Name returns the worker name.
func (t *Transport) Name() string { return t.name }

// Addr returns the TCP listening address.
func (t *Transport) Addr() string { return t.addrs["tcp"] }

// AddrOf returns the listening address for the named backend scheme, or ""
// when the transport has no such backend.
func (t *Transport) AddrOf(scheme string) string { return t.addrs[scheme] }

// Dial connects to a peer transport. The target may carry a "scheme://"
// prefix selecting a non-TCP backend registered via WithBackend; a bare
// host:port dials TCP as before.
func (t *Transport) Dial(addr string) error {
	scheme, target := splitScheme(addr)
	b := t.backends[scheme]
	if b == nil {
		return fmt.Errorf("comm: %s has no %q backend", t.name, scheme)
	}
	conn, err := b.Dial(target)
	if err != nil {
		return err
	}
	if t.opts.hook != nil {
		conn = t.opts.hook.WrapConn(conn)
	}
	fw, fr, direct := frameBuffers(conn)
	enc := gob.NewEncoder(fw)
	if err := t.sendHello(enc, fw); err != nil {
		conn.Close()
		return err
	}
	dec := gob.NewDecoder(fr)
	var h hello
	if err := dec.Decode(&h); err != nil {
		// The acceptor registers us before it replies and refuses a
		// duplicate name by hanging up instead, so no reply means no link.
		conn.Close()
		return fmt.Errorf("comm: handshake with %s: %w", addr, err)
	}
	if pn, ok := t.opts.hook.(PeerNamer); ok {
		pn.NamePeer(conn, h.Name)
	}
	p := t.addPeer(h.Name, conn, enc, fw, scheme, direct, h.Codecs, h.Relay, false)
	if p == nil {
		conn.Close()
		return fmt.Errorf("comm: duplicate peer %q", h.Name)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(p, fr, dec)
	}()
	return nil
}

// DialBackoff dials addr with exponential backoff (base, doubling, capped
// at 32x) until the connection is established, attempts are exhausted, or
// the transport closes. Peers that lost a connection to a failed or
// rescheduled worker use it to re-establish the link once the survivor is
// reachable again.
func (t *Transport) DialBackoff(addr string, attempts int, base time.Duration) error {
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	wait := base
	var err error
	for i := 0; i < attempts; i++ {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return errors.New("comm: transport closed")
		}
		if err = t.Dial(addr); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		time.Sleep(wait)
		if wait < 32*base {
			wait *= 2
		}
	}
	return fmt.Errorf("comm: dial %s: %w", addr, err)
}

// hello builds this transport's handshake message, advertising the codecs
// it can decode (optionally filtered to simulate a mixed-build cluster).
func (t *Transport) hello() hello {
	h := hello{Name: t.name, Relay: t.opts.relayHandler != nil}
	for id, c := range *codecs.Load() {
		if t.opts.codecOK != nil && !t.opts.codecOK(id) {
			continue
		}
		h.Codecs = append(h.Codecs, CodecAd{ID: id, Ver: c.Version})
	}
	return h
}

// sendHello writes this transport's handshake message and flushes it.
func (t *Transport) sendHello(enc *gob.Encoder, fw FrameSink) error {
	if err := enc.Encode(t.hello()); err != nil {
		return err
	}
	return fw.Flush()
}

// Disconnect drops the connection to the named peer. It is used when the
// leader reports a peer dead: pending writes are abandoned and a later
// Dial/DialBackoff may re-establish the pair. Disconnecting a peer this
// transport has no link to is an error, not a no-op: the link may simply
// not be registered yet, and would then outlive the call.
func (t *Transport) Disconnect(name string) error {
	p := (*t.peers.Load())[name]
	if p == nil {
		return fmt.Errorf("comm: %s: disconnect %q: no such peer", t.name, name)
	}
	t.dropPeer(p)
	return nil
}

// dropPeer removes p from the peer table (if it is still the registered
// connection for its name) and closes it. Safe to call from multiple
// goroutines; the read and write loops both call it on exit so a dead
// connection never lingers in the table blocking a reconnect.
func (t *Transport) dropPeer(p *peer) {
	t.mu.Lock()
	old := *t.peers.Load()
	if old[p.name] == p {
		next := make(map[string]*peer, len(old))
		for k, v := range old {
			if v != p {
				next[k] = v
			}
		}
		t.peers.Store(&next)
	}
	t.mu.Unlock()
	p.close()
}

// drainQueue releases the pooled resource each undelivered queued message
// holds: a shared fanout frame's reference.
func drainQueue(out chan outMsg) {
	for {
		select {
		case o := <-out:
			if o.bcast != nil {
				o.bcast.release()
			}
		default:
			return
		}
	}
}

// drainPeer releases the resources of messages stranded in a dead peer's
// out queue. A sender's select can still commit an enqueue after done
// closes (both cases ready, runtime picks either), so the peer is parked
// in the graveyard for a final sweep at Close — after which accounting is
// exact provided senders have quiesced.
func (t *Transport) drainPeer(p *peer) {
	drainQueue(p.out)
	t.mu.Lock()
	if !t.closed {
		t.graveyard = append(t.graveyard, p)
	}
	t.mu.Unlock()
}

// SendWithHint transmits m on stream id to the named peer with a
// coalescing deadline: the transport may hold a data frame in the peer's
// write buffer until hint.FlushBy (bounded by the byte budget and maximum
// hold time) to batch it with neighboring frames — typically its
// timestamp's watermark, which ends the hold. The zero hint flushes on
// queue drain. The lookup is lock-free and the sent counter is only
// incremented once the message is actually queued on a live connection.
// The caller must leave a []byte payload untouched until it is on the
// wire.
func (t *Transport) SendWithHint(peerName string, id stream.ID, m message.Message, hint FlushHint) error {
	p := (*t.peers.Load())[peerName]
	if p == nil {
		return fmt.Errorf("comm: %s has no peer %q", t.name, peerName)
	}
	o := outMsg{id: id, m: m, flushBy: hint.FlushBy, closes: m.IsWatermark()}
	if p.vc != nil {
		return t.sendValue(p, o)
	}
	return t.sendFramed(p, o)
}

// sendFramed dispatches a message that p receives as frame bytes: ring
// links frame and publish it synchronously, queued links hand it to the
// write loop. For a shared frame, on success the destination owns one
// reference (its write loop — or the drain that follows its death —
// releases it); on error the caller still does.
func (t *Transport) sendFramed(p *peer, o outMsg) error {
	if p.direct {
		return t.sendDirect(p, o)
	}
	select {
	case p.out <- o:
		t.sent.Add(1)
		return nil
	case <-p.done:
		return errors.New("comm: peer connection closed")
	}
}

// sendValue hands the message value to a same-process peer through the
// connection's ValueConn capability: no framing, no codec, no copy.
// Ownership of the payload transfers to the receiver, which recycles
// pooled payloads under the ordinary receive-path contract.
func (t *Transport) sendValue(p *peer, o outMsg) error {
	if err := p.vc.SendValue(o.id, o.m); err != nil {
		t.dropPeer(p)
		return err
	}
	t.sent.Add(1)
	p.statFrames.Add(1)
	return nil
}

// sendDirect frames and publishes o synchronously in the caller's
// goroutine. Ring-backed links take this path: the ring itself is the
// coalescing buffer and a publish is an atomic store plus a conditional
// wake, so the out-queue handoff and flush batching the writeLoop exists
// for would only add scheduler hops to a same-host send. Backpressure is
// the ring running full, which blocks the sender until the consumer
// drains — the same stall a full out queue imposes on queued links.
func (t *Transport) sendDirect(p *peer, o outMsg) error {
	p.wmu.Lock()
	select {
	case <-p.done:
		p.wmu.Unlock()
		return errors.New("comm: peer connection closed")
	default:
	}
	n, _, err := t.writeMsg(p, o)
	if err == nil {
		err = p.fw.Flush()
	}
	if err == nil && o.bcast != nil {
		// This destination's bytes are staged; its reference to the
		// shared frame is consumed. (On error the caller still owns it.)
		o.bcast.release()
	}
	if err == nil {
		p.statFrames.Add(1)
		p.statBytes.Add(uint64(n))
		p.statFlushes.Add(1)
	}
	p.wmu.Unlock()
	if err != nil {
		t.dropPeer(p)
		return err
	}
	t.sent.Add(1)
	t.flushes.Add(1)
	return nil
}

// Peers returns the connected peer names.
func (t *Transport) Peers() []string {
	peers := *t.peers.Load()
	out := make([]string, 0, len(peers))
	for n := range peers {
		out = append(out, n)
	}
	return out
}

// RelayCapable reports whether the named peer advertised a relay handler
// in its handshake: tagRelay envelopes sent to it will be republished to
// its co-host consumers rather than dropped. False for unknown peers.
func (t *Transport) RelayCapable(name string) bool {
	p := (*t.peers.Load())[name]
	return p != nil && p.relay
}

// PeerSchemes reports which backend each connected peer link rides, keyed
// by peer name ("tcp", "shm"). Tests and placement telemetry use it to
// verify locality negotiation picked the intended backend.
func (t *Transport) PeerSchemes() map[string]string {
	peers := *t.peers.Load()
	out := make(map[string]string, len(peers))
	for n, p := range peers {
		out[n] = p.scheme
	}
	return out
}

// Counters returns messages sent and received.
func (t *Transport) Counters() (sent, received uint64) {
	return t.sent.Load(), t.received.Load()
}

// Close tears down every connection and stops the accept loop.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := *t.peers.Load()
	empty := map[string]*peer{}
	t.peers.Store(&empty)
	t.mu.Unlock()
	for _, ln := range t.listeners {
		ln.Close()
	}
	for _, p := range peers {
		p.close()
	}
	t.wg.Wait()
	// Every write loop has exited; sweep the queues one last time so
	// enqueues that raced the per-loop drains release their frames too. A
	// sender's select can commit an enqueue after done closes (both cases
	// ready, runtime picks either) even though the per-loop drain already
	// ran, and that applies to live-at-Close peers just as much as to
	// graveyard ones — drainPeer skips the graveyard once t.closed is set,
	// so those peers are swept from the map snapshot instead. After this,
	// frame accounting is exact provided senders have quiesced.
	t.mu.Lock()
	gy := t.graveyard
	t.graveyard = nil
	t.mu.Unlock()
	for _, p := range gy {
		drainQueue(p.out)
	}
	for _, p := range peers {
		drainQueue(p.out)
	}
}

func (t *Transport) acceptLoop(ln Listener, scheme string) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if t.opts.hook != nil {
			conn = t.opts.hook.WrapConn(conn)
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			fw, fr, direct := frameBuffers(conn)
			dec := gob.NewDecoder(fr)
			var h hello
			if err := dec.Decode(&h); err != nil {
				conn.Close()
				return
			}
			if pn, ok := t.opts.hook.(PeerNamer); ok {
				pn.NamePeer(conn, h.Name)
			}
			p := t.addPeer(h.Name, conn, gob.NewEncoder(fw), fw, scheme, direct, h.Codecs, h.Relay, true)
			if p == nil {
				conn.Close()
				return
			}
			t.readLoop(p, fr, dec)
		}()
	}
}

// addPeer registers a handshaken connection under name and starts its
// loops; it returns nil, registering nothing, for a duplicate name or a
// closed transport. An acceptor passes reply: the hello reply is written
// after the peer is in the table, so a dialer whose handshake completes is
// already known here, but before any send can reach fw — direct sends wait
// on wmu and queued sends wait in out for the write loop started after it.
// A failed reply rolls the registration back.
func (t *Transport) addPeer(name string, conn net.Conn, enc *gob.Encoder, fw FrameSink, scheme string, direct bool, ads []CodecAd, relay, reply bool) *peer {
	var remote map[uint64]uint8
	if len(ads) > 0 {
		remote = make(map[uint64]uint8, len(ads))
		for _, ad := range ads {
			remote[ad.ID] = ad.Ver
		}
	}
	vc, _ := conn.(ValueConn)
	p := &peer{
		name:   name,
		conn:   conn,
		enc:    enc,
		fw:     fw,
		scheme: scheme,
		direct: direct,
		vc:     vc,
		out:    make(chan outMsg, 1024),
		done:   make(chan struct{}),
		codecs: remote,
		relay:  relay,
	}
	// Value links deliver through the value loop; the byte write loop
	// would only idle (the byte stream carries nothing after the
	// handshake, serving as the liveness signal). Direct links have no
	// loop at all.
	loop := p.vc != nil || !p.direct
	p.wmu.Lock()
	t.mu.Lock()
	old := *t.peers.Load()
	if _, dup := old[name]; dup || t.closed {
		t.mu.Unlock()
		p.wmu.Unlock()
		return nil
	}
	next := make(map[string]*peer, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = p
	t.peers.Store(&next)
	if loop {
		// Counted under mu so a racing Close waits for the loop.
		t.wg.Add(1)
	}
	t.mu.Unlock()
	var err error
	if reply {
		err = t.sendHello(enc, fw)
	}
	p.wmu.Unlock()
	switch {
	case err != nil:
		t.dropPeer(p)
		t.drainPeer(p)
		if loop {
			t.wg.Done()
		}
		return nil
	case p.vc != nil:
		go t.valueLoop(p)
	case !p.direct:
		go t.writeLoop(p)
	}
	return p
}

// valueLoop delivers inbound message values from a same-process peer —
// the value-path analogue of readLoop, with no decoding at all.
func (t *Transport) valueLoop(p *peer) {
	defer t.wg.Done()
	defer t.dropPeer(p)
	for {
		id, m, err := p.vc.RecvValue()
		if err != nil {
			return
		}
		t.received.Add(1)
		if t.handler != nil {
			// A value is shared with its sender, so it is never owned.
			m.Owned = false
			t.handler(p.name, id, m)
		}
	}
}

// scratchPool recycles the header buffers of binary frames.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 128)
		return &b
	},
}

// rawEligible reports whether m can take the reflection-free binary path:
// watermarks always can, data messages when the payload is []byte.
func rawEligible(m message.Message) bool {
	if !m.IsData() {
		return true
	}
	_, ok := m.Payload.([]byte)
	return ok
}

// writeRawFrame emits a tagRaw frame: uvarint stream id, kind byte, binary
// timestamp, and for data messages a uvarint length-prefixed payload written
// directly from the message (no intermediate copy). Returns bytes written.
func writeRawFrame(fw FrameSink, id stream.ID, m message.Message) (int, error) {
	raw, _ := m.Payload.([]byte)
	sp := scratchPool.Get().(*[]byte)
	buf := append((*sp)[:0], tagRaw)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = append(buf, byte(m.Kind))
	buf = m.Timestamp.AppendBinary(buf)
	if !m.IsData() {
		raw = nil
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
	}
	n := len(buf) + len(raw)
	_, err := fw.Write(buf)
	*sp = buf
	scratchPool.Put(sp)
	if err == nil && len(raw) > 0 {
		_, err = fw.Write(raw)
	}
	return n, err
}

// writeTypedFrame emits a tagTyped frame: uvarint stream id, binary
// timestamp, uvarint codec id, codec version byte, and a uvarint
// length-prefixed body appended by the payload's MarshalFrame. Typed
// frames always carry data messages, so no kind byte is needed. The body
// is marshaled into the pooled scratch after the header so its length
// prefix can be written without a second pass; nothing escapes, so the
// send side stays allocation-free in steady state.
func writeTypedFrame(fw FrameSink, id stream.ID, m message.Message, codecID uint64, version uint8, marshal func([]byte) []byte) (int, error) {
	sp := scratchPool.Get().(*[]byte)
	buf := append((*sp)[:0], tagTyped)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = m.Timestamp.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, codecID)
	buf = append(buf, version)
	bodyAt := len(buf)
	buf = marshal(buf)
	body := buf[bodyAt:]
	// Length prefix goes between header and body: encode it into spare
	// capacity and shift the body up by its width.
	var lp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lp[:], uint64(len(body)))
	buf = append(buf, lp[:w]...)
	copy(buf[bodyAt+w:], body)
	copy(buf[bodyAt:], lp[:w])
	_, err := fw.Write(buf)
	*sp = buf
	scratchPool.Put(sp)
	return len(buf), err
}

// readRawFrame decodes the body of a tagRaw frame (the tag byte has been
// consumed). The payload comes from the size-classed pool and the message
// is marked Owned: nothing else references the buffer, so the receiving
// worker recycles it once its callbacks are done (see pool.go).
func readRawFrame(fr FrameSource) (stream.ID, message.Message, error) {
	sid, err := binary.ReadUvarint(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	kind, err := fr.ReadByte()
	if err != nil {
		return 0, message.Message{}, err
	}
	ts, err := timestamp.ReadBinary(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	m := message.Message{Kind: message.Kind(kind), Timestamp: ts}
	if m.IsData() {
		plen, err := binary.ReadUvarint(fr)
		if err != nil {
			return 0, message.Message{}, err
		}
		if plen > maxFramePayload {
			return 0, message.Message{}, fmt.Errorf("comm: raw frame of %d bytes exceeds limit", plen)
		}
		payload := AcquirePayload(int(plen))
		if _, err := io.ReadFull(fr, payload); err != nil {
			// A truncated frame kills the connection, but the pooled buffer
			// is still this function's to return.
			RecyclePayload(payload)
			return 0, message.Message{}, err
		}
		m.Payload, m.Owned = payload, true
	}
	return stream.ID(sid), m, nil
}

// readTypedFrame decodes the body of a tagTyped frame (the tag byte has
// been consumed). Unknown codec IDs and versions newer than the local
// codec are protocol errors: the caller drops the connection rather than
// silently losing data.
func readTypedFrame(fr FrameSource) (stream.ID, message.Message, error) {
	sid, err := binary.ReadUvarint(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	ts, err := timestamp.ReadBinary(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	codecID, err := binary.ReadUvarint(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	version, err := fr.ReadByte()
	if err != nil {
		return 0, message.Message{}, err
	}
	blen, err := binary.ReadUvarint(fr)
	if err != nil {
		return 0, message.Message{}, err
	}
	if blen > maxFramePayload {
		return 0, message.Message{}, fmt.Errorf("comm: typed frame of %d bytes exceeds limit", blen)
	}
	// Typed bodies are transient: Codec.Unmarshal must copy anything it
	// keeps, so the buffer goes straight back to the pool after decoding
	// and steady-state receive makes no per-frame body allocation.
	body := AcquirePayload(int(blen))
	if _, err := io.ReadFull(fr, body); err != nil {
		RecyclePayload(body)
		return 0, message.Message{}, err
	}
	payload, err := DecodeFrameBody(codecID, version, body)
	RecyclePayload(body)
	if err != nil {
		return 0, message.Message{}, err
	}
	return stream.ID(sid), message.Message{
		Kind:      message.KindData,
		Timestamp: ts,
		Payload:   payload,
	}, nil
}

// maxRelayCover bounds the declared cover-list size of a relay envelope so
// a corrupt count cannot drive an arbitrarily large allocation.
const maxRelayCover = 1 << 16

// coverCache interns a connection's cover lists: a producer ships the same
// cover on every envelope of a route until the schedule changes, so the
// read loop keeps the last decoded []string and reuses it when the raw
// bytes match — steady state, a relay link parses covers with zero
// allocations. The cached slice is shared with handlers that may still
// hold it (the cluster's relay queue), so it is never mutated in place: a
// mismatch builds a fresh slice and replaces the cache. Owned by a single
// read goroutine; no locking.
type coverCache struct {
	scratch []byte // concatenated name bytes of the current envelope
	ends    []int  // scratch end offset of each name
	cover   []string
}

// readRelayEnvelope decodes the body of a tagRelay frame (the tag byte has
// been consumed): a hint-presence byte, the producer's remaining slack as a
// signed varint of nanoseconds, the cover list (the consumer names this
// relay republishes to), and the uvarint length-prefixed inner wire frame,
// returned as a pooled buffer the caller owns. FlushBy is re-derived
// against the local clock at arrival, so relay-side queueing and handler
// time count against the producer's slack without any cross-host clock.
// cc, when non-nil, interns repeated cover lists across the connection.
func readRelayEnvelope(fr FrameSource, cc *coverCache) (cover []string, frame []byte, typed bool, hint FlushHint, err error) {
	hb, err := fr.ReadByte()
	if err != nil {
		return nil, nil, false, hint, err
	}
	if hb != 0 {
		slack, err := binary.ReadVarint(fr)
		if err != nil {
			return nil, nil, false, hint, err
		}
		hint.FlushBy = time.Now().Add(time.Duration(slack))
	}
	nc, err := binary.ReadUvarint(fr)
	if err != nil {
		return nil, nil, false, hint, err
	}
	if nc > maxRelayCover {
		return nil, nil, false, hint, fmt.Errorf("comm: relay cover of %d names exceeds limit", nc)
	}
	if nc > 0 {
		if cc == nil {
			cc = &coverCache{}
		}
		// Read every name into one reusable scratch buffer first, then
		// decide whether the cached slice already spells the same list.
		cc.scratch, cc.ends = cc.scratch[:0], cc.ends[:0]
		for i := 0; i < int(nc); i++ {
			nl, err := binary.ReadUvarint(fr)
			if err != nil {
				return nil, nil, false, hint, err
			}
			if nl > 4096 {
				return nil, nil, false, hint, fmt.Errorf("comm: relay cover name of %d bytes exceeds limit", nl)
			}
			at, need := len(cc.scratch), len(cc.scratch)+int(nl)
			if cap(cc.scratch) >= need {
				cc.scratch = cc.scratch[:need]
			} else {
				grown := make([]byte, need, 2*need)
				copy(grown, cc.scratch)
				cc.scratch = grown
			}
			if _, err := io.ReadFull(fr, cc.scratch[at:]); err != nil {
				return nil, nil, false, hint, err
			}
			cc.ends = append(cc.ends, len(cc.scratch))
		}
		match := len(cc.cover) == int(nc)
		for i, at := 0, 0; match && i < int(nc); i++ {
			if cc.cover[i] != string(cc.scratch[at:cc.ends[i]]) {
				match = false
			}
			at = cc.ends[i]
		}
		if !match {
			fresh := make([]string, nc)
			for i, at := 0, 0; i < int(nc); i++ {
				fresh[i] = string(cc.scratch[at:cc.ends[i]])
				at = cc.ends[i]
			}
			cc.cover = fresh
		}
		cover = cc.cover
	}
	blen, err := binary.ReadUvarint(fr)
	if err != nil {
		return nil, nil, false, hint, err
	}
	if blen > maxFramePayload {
		return nil, nil, false, hint, fmt.Errorf("comm: relay envelope of %d bytes exceeds limit", blen)
	}
	frame = AcquirePayload(int(blen))
	if _, err := io.ReadFull(fr, frame); err != nil {
		RecyclePayload(frame)
		return nil, nil, false, hint, err
	}
	typed = len(frame) > 0 && frame[0] == tagTyped
	return cover, frame, typed, hint, nil
}

// frameStreamID reads the stream id out of a complete tagRaw/tagTyped wire
// frame without decoding the message: both layouts put a uvarint stream id
// immediately after the tag byte. This is what lets the relay read path
// defer the payload copy to RelayHandler's lazy decoder.
func frameStreamID(frame []byte) (stream.ID, error) {
	if len(frame) < 2 {
		return 0, fmt.Errorf("comm: relay inner frame of %d bytes has no header", len(frame))
	}
	sid, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return 0, fmt.Errorf("comm: relay inner frame has a malformed stream id")
	}
	return stream.ID(sid), nil
}

// frameCloses reports whether a complete tagRaw/tagTyped wire frame carries
// a watermark: in a tagRaw frame the kind byte follows the uvarint stream
// id, and tagTyped frames always carry data.
func frameCloses(frame []byte) bool {
	if len(frame) < 2 || frame[0] != tagRaw {
		return false
	}
	_, n := binary.Uvarint(frame[1:])
	return n > 0 && len(frame) > 1+n && message.Kind(frame[1+n]) == message.KindWatermark
}

// decodes reports whether the peer advertised it can decode frames of the
// given codec at the version the local build writes. A peer with no
// advertisement (pre-negotiation build) is assumed to share our registry.
func (p *peer) decodes(id uint64, version uint8) bool {
	if p.codecs == nil {
		return true
	}
	v, ok := p.codecs[id]
	return ok && v >= version
}

// writeMsg frames one message — raw binary, typed binary, or gob Envelope —
// and returns the encoded size plus whether it fell back to gob, which the
// write loop flushes on queue drain regardless of hints (gob frames report
// a nominal size since the encoder writes through the frame writer
// directly; they are rare by construction).
// The typed path is taken only when the handshake advertisement says the
// peer decodes this codec at our version; otherwise the payload downgrades
// to the gob Envelope for this peer while same-build peers stay typed.
func (t *Transport) writeMsg(p *peer, o outMsg) (n int, viaGob bool, err error) {
	if o.bcast != nil {
		n = len(o.bcast.buf)
		if o.relay {
			// Relay envelope: remaining slack (measured now, so queueing on
			// this link has already been charged against it), the cover
			// list, and the inner frame's length, then the shared bytes
			// verbatim. The receiver re-derives FlushBy as its own arrival
			// time plus this slack.
			sp := scratchPool.Get().(*[]byte)
			hdr := append((*sp)[:0], tagRelay)
			if o.flushBy.IsZero() {
				hdr = append(hdr, 0)
			} else {
				hdr = append(hdr, 1)
				hdr = binary.AppendVarint(hdr, int64(time.Until(o.flushBy)))
			}
			hdr = binary.AppendUvarint(hdr, uint64(len(o.cover)))
			for _, name := range o.cover {
				hdr = binary.AppendUvarint(hdr, uint64(len(name)))
				hdr = append(hdr, name...)
			}
			hdr = binary.AppendUvarint(hdr, uint64(len(o.bcast.buf)))
			_, err = p.fw.Write(hdr)
			n += len(hdr)
			*sp = hdr
			scratchPool.Put(sp)
			if err == nil {
				_, err = p.fw.Write(o.bcast.buf)
			}
			if err == nil {
				t.relaySent.Add(1)
				p.statRelay.Add(1)
			}
		} else {
			// Pre-encoded fanout frame: the bytes were laid out once by
			// multicast; this link only pays the sink copy.
			_, err = p.fw.Write(o.bcast.buf)
		}
		if err == nil {
			if o.bcast.typed {
				t.typedSent.Add(1)
			} else {
				t.rawSent.Add(1)
			}
		}
		return n, false, err
	}
	if rawEligible(o.m) {
		n, err = writeRawFrame(p.fw, o.id, o.m)
		if err == nil {
			t.rawSent.Add(1)
		}
		return n, false, err
	}
	if fp, ok := o.m.Payload.(FramePayload); ok {
		if c := lookupCodec(fp.FrameCodec()); c != nil && p.decodes(c.ID, c.Version) {
			n, err = writeTypedFrame(p.fw, o.id, o.m, c.ID, c.Version, fp.MarshalFrame)
			if err == nil {
				t.typedSent.Add(1)
			}
			return n, false, err
		}
	} else if d, ok := o.m.Payload.(time.Duration); ok && p.decodes(DurationCodecID, 1) {
		n, err = writeTypedFrame(p.fw, o.id, o.m, DurationCodecID, 1, func(dst []byte) []byte {
			return binary.AppendVarint(dst, int64(d))
		})
		if err == nil {
			t.typedSent.Add(1)
		}
		return n, false, err
	}
	if err := p.fw.WriteByte(tagGob); err != nil {
		return 1, true, err
	}
	env := ToEnvelope(o.id, o.m)
	if err := p.enc.Encode(&env); err != nil {
		return 1, true, err
	}
	t.gobSent.Add(1)
	return 256, true, nil
}

// Coalescing knobs. A flush is forced once flushBudget bytes are buffered;
// hinted data frames may be held up to maxCoalesceHold past the oldest
// one's arrival waiting for companions, but never later than flushGuard
// before the earliest FlushBy among held frames.
//
// Slack bounds how long a held frame MAY wait; the gap EWMA bounds how long
// waiting is WORTH it. Once the producer has been idle for companyGaps
// expected inter-arrival gaps the burst is over and the buffer flushes
// rather than spending the slack the hint promised to protect. When that
// patience window is shorter than spinPatience the producer is burst-rate
// and a timer is too blunt: the loop yields the processor up to
// companySpins times (letting a descheduled sender finish enqueueing) and
// flushes the whole burst as one frame train.
const (
	flushBudget     = 32 << 10
	maxCoalesceHold = time.Millisecond
	flushGuard      = 500 * time.Microsecond
	ewmaAlpha       = 0.125
	companyGaps     = 8
	spinPatience    = 50 * time.Microsecond
	companySpins    = 4
)

// coalescer is one link's write-loop batching state, owned by the writeLoop
// goroutine. The gap EWMA and last arrival persist across flushes; the rest
// describes the frames buffered since the last flush.
type coalescer struct {
	gapNs float64   // EWMA of frame inter-arrival gaps (ns)
	last  time.Time // when the newest frame was encoded

	buffered  int       // bytes encoded since the last flush
	held      int       // frames encoded since the last flush
	holdBy    time.Time // earliest FlushBy among held hinted data frames
	holdSince time.Time // when the oldest held frame was encoded
	mustFlush bool      // a held frame closes its timestamp or has no hint
}

// add records one frame of n bytes encoded at now. A frame that closes its
// timestamp (or otherwise must not wait) or carries no hint makes the
// buffer flush at drain; a hinted data frame lowers holdBy to its FlushBy.
func (c *coalescer) add(now time.Time, n int, flushBy time.Time, closes bool) {
	if !c.last.IsZero() {
		if gap := float64(now.Sub(c.last)); gap > 0 {
			if c.gapNs == 0 {
				c.gapNs = gap
			} else {
				c.gapNs += ewmaAlpha * (gap - c.gapNs)
			}
		}
	}
	c.last = now
	c.buffered += n
	c.held++
	if c.holdSince.IsZero() {
		c.holdSince = now
	}
	if closes || flushBy.IsZero() {
		c.mustFlush = true
	} else if c.holdBy.IsZero() || flushBy.Before(c.holdBy) {
		c.holdBy = flushBy
	}
}

// flushed resets the per-flush state.
func (c *coalescer) flushed() {
	c.buffered, c.held, c.mustFlush = 0, 0, false
	c.holdBy, c.holdSince = time.Time{}, time.Time{}
}

// flushAt decides, once the out queue has drained, when the buffered frames
// must go out; the zero time means now. A frame that closes its timestamp,
// an unhinted frame or a full budget flushes at drain. Otherwise every held
// frame is hinted data, which waits for company until the earliest FlushBy
// minus flushGuard, at most maxCoalesceHold past the oldest held frame, and
// no longer than companyGaps expected gaps past the newest. spin reports a
// burst-rate producer (that idle window is under spinPatience): the loop
// yields for company a few times instead of arming a timer, then flushes.
func (c *coalescer) flushAt() (at time.Time, spin bool) {
	if c.mustFlush || c.buffered >= flushBudget {
		return time.Time{}, false
	}
	patience := time.Duration(companyGaps * c.gapNs)
	if patience > 0 && patience < spinPatience {
		return time.Time{}, true
	}
	at = c.holdBy.Add(-flushGuard)
	if holdCap := c.holdSince.Add(maxCoalesceHold); holdCap.Before(at) {
		at = holdCap
	}
	if idleBy := c.last.Add(patience); patience > 0 && idleBy.Before(at) {
		at = idleBy
	}
	return at, false
}

// writeLoop serializes frame encoding per connection and batches flushes:
// it drains whatever is queued, encoding each message, then flushes when
// the coalescer's flushAt says so — at once when a watermark or an
// unhinted frame is buffered, otherwise after holding hinted data for
// company.
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	// Exit order (LIFO): dropPeer first — closing done so senders start
	// failing — then drainPeer releasing whatever was already queued.
	defer t.drainPeer(p)
	defer t.dropPeer(p)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var c coalescer
	flush := func() bool {
		err := p.fw.Flush()
		t.flushes.Add(1)
		p.statFlushes.Add(1)
		if c.held > 1 {
			t.coalesced.Add(uint64(c.held - 1))
			p.statCoalesced.Add(uint64(c.held - 1))
		}
		if !c.holdBy.IsZero() && time.Now().After(c.holdBy) {
			t.lateFlushes.Add(1)
		}
		c.flushed()
		return err == nil
	}
	write := func(o outMsg) bool {
		now := time.Now()
		n, viaGob, err := t.writeMsg(p, o)
		if o.bcast != nil {
			// Whether the bytes landed or the link just died, this
			// destination is done with the shared frame.
			o.bcast.release()
		}
		if err != nil {
			return false
		}
		p.statFrames.Add(1)
		p.statBytes.Add(uint64(n))
		c.add(now, n, o.flushBy, o.closes || viaGob)
		return true
	}
	for {
		select {
		case <-p.done:
			return
		case o := <-p.out:
			if !write(o) {
				return
			}
			for c.held > 0 {
			drain:
				for c.buffered < flushBudget {
					select {
					case o = <-p.out:
						if !write(o) {
							return
						}
					default:
						break drain
					}
				}
				at, spin := c.flushAt()
				if spin {
					more := false
					for i := 0; i < companySpins && !more; i++ {
						runtime.Gosched()
						select {
						case o = <-p.out:
							if !write(o) {
								return
							}
							more = true
						default:
						}
					}
					if more {
						continue
					}
				}
				wait := time.Until(at)
				if wait <= 0 {
					if !flush() {
						return
					}
					continue
				}
				timer.Reset(wait)
				select {
				case <-p.done:
					timer.Stop()
					return
				case o = <-p.out:
					if !timer.Stop() {
						<-timer.C
					}
					if !write(o) {
						return
					}
				case <-timer.C:
					if !flush() {
						return
					}
				}
			}
		}
	}
}

// readLoop decodes frames until the connection fails; callers own the
// goroutine accounting. On exit the peer is dropped from the table so a
// reconnect can register a fresh connection under the same name.
func (t *Transport) readLoop(p *peer, fr FrameSource, dec *gob.Decoder) {
	defer t.dropPeer(p)
	var covers coverCache
	for {
		tag, err := fr.ReadByte()
		if err != nil {
			return
		}
		var id stream.ID
		var m message.Message
		switch tag {
		case tagRaw:
			if id, m, err = readRawFrame(fr); err != nil {
				return
			}
			t.rawRecv.Add(1)
		case tagTyped:
			if id, m, err = readTypedFrame(fr); err != nil {
				return
			}
			t.typedRecv.Add(1)
		case tagGob:
			var env Envelope
			if err := dec.Decode(&env); err != nil {
				return
			}
			id, m = FromEnvelope(env)
			t.gobRecv.Add(1)
		case tagRelay:
			cover, frame, typed, hint, rerr := readRelayEnvelope(fr, &covers)
			if rerr != nil {
				return
			}
			if typed {
				t.typedRecv.Add(1)
			} else {
				t.rawRecv.Add(1)
			}
			t.relayRecv.Add(1)
			t.received.Add(1)
			if rh := t.opts.relayHandler; rh != nil {
				// Only the stream id is parsed eagerly (it sits in the
				// inner frame header); the message decodes lazily so a
				// relay that just republishes the verbatim bytes never
				// pays the payload copy.
				rid, iderr := frameStreamID(frame)
				if iderr != nil {
					RecyclePayload(frame)
					err = iderr
					return
				}
				decode := func() (message.Message, error) {
					_, dm, derr := ReadFrame(bytes.NewReader(frame))
					return dm, derr
				}
				rh(p.name, rid, cover, decode, frame, typed, hint)
			} else {
				// No relay handler (capability was never advertised, but a
				// misdirected envelope is still a valid frame): deliver
				// locally and drop the republish.
				if id, m, err = ReadFrame(bytes.NewReader(frame)); err != nil {
					RecyclePayload(frame)
					return
				}
				RecyclePayload(frame)
				if t.handler != nil {
					t.handler(p.name, id, m)
				}
			}
			continue
		default:
			return // protocol corruption; drop the connection
		}
		t.received.Add(1)
		if t.handler != nil {
			t.handler(p.name, id, m)
		}
	}
}
