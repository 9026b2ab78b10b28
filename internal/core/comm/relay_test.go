package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// relayRig is a producer, one relay transport (registered relay handler),
// and n consumer transports. The producer is connected to everything (the
// fallback contract requires Cover members to be reachable pairwise); the
// relay is connected to every consumer for republish.
type relayRig struct {
	src, relay *Transport
	recv       []*Transport
	got        []chan message.Message
	names      []string
	envelopes  atomic.Uint64
	typed      atomic.Bool
	hints      chan FlushHint
	handler    atomic.Pointer[RelayHandler]
}

func newRelayRig(t testing.TB, n int) *relayRig {
	t.Helper()
	rig := &relayRig{hints: make(chan FlushHint, 16)}

	src, err := Listen("src", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	rig.src = src

	relay, err := Listen("relay", "127.0.0.1:0", nil,
		WithRelayHandler(func(from string, id stream.ID, cover []string, decode func() (message.Message, error), frame []byte, typed bool, hint FlushHint) {
			rig.envelopes.Add(1)
			rig.typed.Store(typed)
			select {
			case rig.hints <- hint:
			default:
			}
			(*rig.handler.Load())(from, id, cover, decode, frame, typed, hint)
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	rig.relay = relay

	// Default handler: republish the verbatim frame pairwise to the
	// producer's cover list, propagating the re-derived hint. The relay is
	// not a consumer here, so the lazy decoder is never invoked and the
	// payload copy never happens.
	h := RelayHandler(func(_ string, id stream.ID, cover []string, _ func() (message.Message, error), frame []byte, typed bool, hint FlushHint) {
		if _, err := relay.RepublishWithHint(nil, nil, cover, frame, typed, id, hint); err != nil {
			t.Errorf("republish: %v", err)
		}
	})
	rig.handler.Store(&h)

	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		ch := make(chan message.Message, 1024)
		r, err := Listen(name, "127.0.0.1:0",
			func(_ string, _ stream.ID, m message.Message) { ch <- m })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		for _, dialer := range []*Transport{src, relay} {
			if err := dialer.Dial(r.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		rig.recv = append(rig.recv, r)
		rig.got = append(rig.got, ch)
		rig.names = append(rig.names, name)
	}
	if err := src.Dial(relay.Addr()); err != nil {
		t.Fatal(err)
	}
	return rig
}

func (rig *relayRig) await(t testing.TB, want int) []message.Message {
	t.Helper()
	out := make([]message.Message, 0, want*len(rig.got))
	for i, ch := range rig.got {
		for k := 0; k < want; k++ {
			select {
			case m := <-ch:
				out = append(out, m)
			case <-time.After(2 * time.Second):
				t.Fatalf("consumer %d got %d/%d messages", i, k, want)
			}
		}
	}
	return out
}

// TestRelayMulticastTreeSingleWireFrame proves the tentpole invariant at
// the transport layer: a fanout of a ≥ 4 KB payload to K consumers behind
// one relay costs the producer exactly one wire frame (the tagRelay
// envelope to the relay), zero frames on the producer→consumer links, and
// every consumer receives the same payload from the relay's republish.
// It runs for a raw []byte payload and for a codec-registered testVec,
// which the envelope carries as a typed frame that consumers decode back.
// For each payload the relay link's bytes are flat in K: going from 4 to
// 8 covered consumers adds at most the longer cover list, never a payload
// copy.
func TestRelayMulticastTreeSingleWireFrame(t *testing.T) {
	raw := bytes.Repeat([]byte("0123456789abcdef"), 256)
	vec := testVec{X: 4.25, S: string(raw), Ns: []uint64{3, 5}}
	payloads := []struct {
		name    string
		payload any
		typed   bool
		check   func(any) bool
	}{
		{"bytes", raw, false, func(p any) bool {
			got, ok := p.([]byte)
			return ok && bytes.Equal(got, raw)
		}},
		{"typed", vec, true, func(p any) bool {
			got, ok := p.(testVec)
			return ok && got.X == vec.X && got.S == vec.S
		}},
	}
	// The envelope's cover list at K=8: a count, then a length-prefixed
	// name per consumer.
	cover := binary.AppendUvarint(nil, 8)
	for i := 0; i < 8; i++ {
		cover = binary.AppendUvarint(cover, 1)
		cover = append(cover, byte('a'+i))
	}
	for _, pl := range payloads {
		t.Run(pl.name, func(t *testing.T) {
			relayBytes := map[int]uint64{}
			for _, k := range []int{4, 8} {
				t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
					rig := newRelayRig(t, k)

					if !rig.src.RelayCapable("relay") {
						t.Fatal("relay handshake did not advertise relay capability")
					}
					if rig.src.RelayCapable(rig.names[0]) {
						t.Fatal("plain consumer claims relay capability")
					}

					n, err := rig.src.MulticastTree(nil, nil, nil,
						[]RelayDest{{Relay: "relay", Cover: rig.names}},
						stream.NewID(), message.Data(timestamp.New(1), pl.payload), FlushHint{})
					if err != nil || n != k {
						t.Fatalf("MulticastTree = (%d, %v), want (%d, nil)", n, err, k)
					}
					for i, m := range rig.await(t, 1) {
						if !pl.check(m.Payload) {
							t.Fatalf("consumer %d received a %T payload that does not match the sent %T", i, m.Payload, pl.payload)
						}
					}

					stats := rig.src.PeerCoalesceStats()
					if rf := stats["relay"].RelayFrames; rf != 1 {
						t.Fatalf("relay link carried %d tagRelay envelopes, want 1", rf)
					}
					for _, name := range rig.names {
						if f := stats[name].Frames; f != 0 {
							t.Fatalf("producer wrote %d frames directly to covered consumer %s, want 0", f, name)
						}
					}
					if sent, _, _ := rig.src.RelayStats(); sent != 1 {
						t.Fatalf("producer relaySent = %d, want 1", sent)
					}
					waitFor(t, "relay republish telemetry", 2*time.Second, func() bool {
						_, recv, repub := rig.relay.RelayStats()
						return recv == 1 && repub == uint64(k)
					})
					if got := rig.typed.Load(); got != pl.typed {
						t.Fatalf("relay saw typed=%v, want %v", got, pl.typed)
					}
					waitFrameBalance(t)
					relayBytes[k] = stats["relay"].Bytes
				})
			}
			if b4, b8 := relayBytes[4], relayBytes[8]; b4 < uint64(len(raw)) || b8 < b4 || b8-b4 > uint64(len(cover)) {
				t.Fatalf("relay link bytes K=4: %d, K=8: %d; want at least the %d-byte payload, and K=8 above K=4 by at most the %d-byte cover list", b4, b8, len(raw), len(cover))
			}
		})
	}
}

// TestRelayHintRederivation checks the deadline contract: the envelope
// carries remaining slack, not a wall-clock deadline, so the hint the
// relay sees is re-derived against its own clock and never exceeds the
// slack the producer had left.
func TestRelayHintRederivation(t *testing.T) {
	rig := newRelayRig(t, 1)

	slack := 500 * time.Millisecond
	before := time.Now()
	_, err := rig.src.MulticastTree(nil, nil, nil,
		[]RelayDest{{Relay: "relay", Cover: rig.names}},
		stream.NewID(), message.Data(timestamp.New(1), []byte("hinted")),
		FlushHint{FlushBy: before.Add(slack)})
	if err != nil {
		t.Fatal(err)
	}
	rig.await(t, 1)

	select {
	case hint := <-rig.hints:
		if hint.FlushBy.IsZero() {
			t.Fatal("relay saw a zero hint for a hinted send")
		}
		if hint.FlushBy.After(before.Add(slack + 50*time.Millisecond)) {
			t.Fatalf("relay hint %v extends past the producer's deadline %v", hint.FlushBy, before.Add(slack))
		}
		if !hint.FlushBy.After(before) {
			t.Fatalf("relay hint %v lost all slack immediately", hint.FlushBy)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relay handler never ran")
	}

	// A hintless send must arrive hintless: zero slack is "flush now",
	// not "flush at now+0 wall clock".
	_, err = rig.src.MulticastTree(nil, nil, nil,
		[]RelayDest{{Relay: "relay", Cover: rig.names}},
		stream.NewID(), message.Data(timestamp.New(2), []byte("bare")), FlushHint{})
	if err != nil {
		t.Fatal(err)
	}
	rig.await(t, 1)
	select {
	case hint := <-rig.hints:
		if !hint.FlushBy.IsZero() {
			t.Fatalf("hintless relay send arrived with hint %v", hint.FlushBy)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relay handler never ran for the hintless send")
	}
	waitFrameBalance(t)
}

// TestRelayFallbackToPairwise sends through a RelayDest whose relay never
// registered a handler: the capability is absent from the handshake, so
// the Cover folds back into pairwise sends and nothing is lost.
func TestRelayFallbackToPairwise(t *testing.T) {
	rig := newFanoutRig(t, 3)
	// r0 plays "relay" but advertised no handler; r1, r2 are its cover.
	cover := []string{rig.names[1], rig.names[2]}

	if rig.src.RelayCapable(rig.names[0]) {
		t.Fatal("handler-less peer claims relay capability")
	}
	n, err := rig.src.MulticastTree(nil, nil, nil,
		[]RelayDest{{Relay: rig.names[0], Cover: cover}},
		stream.NewID(), message.Data(timestamp.New(1), []byte("fallback")), FlushHint{})
	if err != nil || n != 2 {
		t.Fatalf("MulticastTree = (%d, %v), want (2, nil)", n, err)
	}
	for i := 1; i <= 2; i++ {
		select {
		case m := <-rig.got[i]:
			if !bytes.Equal(m.Payload.([]byte), []byte("fallback")) {
				t.Fatalf("consumer %d decoded %q", i, m.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("cover consumer %d never got the fallback send", i)
		}
	}
	if sent, _, _ := rig.src.RelayStats(); sent != 0 {
		t.Fatalf("producer shipped %d tagRelay envelopes to a non-relay, want 0", sent)
	}
	waitFrameBalance(t)
}

// TestRepublishDeliversVerbatimFrame republishes a captured wire frame
// directly and checks the consumer decodes it and the caller's reference
// is released even when there are no pairwise destinations.
func TestRepublishDeliversVerbatimFrame(t *testing.T) {
	rig := newFanoutRig(t, 2)

	// Capture a typed frame the same way the relay read loop would hold it.
	v := testVec{X: 9, S: "verbatim", Ns: []uint64{1, 2, 3}}
	m := message.Data(timestamp.New(7), v)
	var sink frameBuf
	sink.b = AcquirePayload(256)[:0]
	c := lookupCodec(v.FrameCodec())
	if c == nil {
		t.Fatal("testVec codec not registered")
	}
	id := stream.NewID()
	if _, err := writeTypedFrame(&sink, id, m, c.ID, c.Version, v.MarshalFrame); err != nil {
		t.Fatal(err)
	}

	n, err := rig.src.RepublishWithHint(nil, nil, rig.names[:2], sink.b, true, id, FlushHint{})
	if err != nil || n != 2 {
		t.Fatalf("RepublishWithHint = (%d, %v), want (2, nil)", n, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case got := <-rig.got[i]:
			pv, ok := got.Payload.(testVec)
			if !ok || pv.X != v.X || pv.S != v.S {
				t.Fatalf("consumer %d decoded %#v", i, got.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("consumer %d never got the republished frame", i)
		}
	}
	if _, _, repub := rig.src.RelayStats(); repub != 2 {
		t.Fatalf("republished counter = %d, want 2", repub)
	}
	waitFrameBalance(t)
}

func waitFor(t testing.TB, what string, d time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
