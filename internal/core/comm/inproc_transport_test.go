package comm_test

import (
	"testing"
	"time"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/inproc"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestTransportOverInproc runs the full transport handshake over the
// in-process backend and verifies the data plane moves values with zero
// serialization: no gob, no raw frames, no typed frames — only the
// handshake crosses the byte pipe.
func TestTransportOverInproc(t *testing.T) {
	gotA := make(chan message.Message, 16)
	gotB := make(chan message.Message, 16)
	a, err := comm.Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotA <- m },
		comm.WithBackend(inproc.New(), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotB <- m },
		comm.WithBackend(inproc.New(), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	addr := a.AddrOf("inproc")
	if addr == "" {
		t.Fatal("transport with inproc backend advertises no inproc address")
	}
	if err := b.Dial("inproc://" + addr); err != nil {
		t.Fatal(err)
	}
	if s := b.PeerSchemes()["a"]; s != "inproc" {
		t.Fatalf("dialer peer scheme = %q, want inproc", s)
	}
	if s := a.PeerSchemes()["b"]; s != "inproc" {
		t.Fatalf("acceptor peer scheme = %q, want inproc", s)
	}

	// A payload type with no codec and no gob registration: only a
	// zero-serialization path can carry it, and the receiver must see the
	// very same pointer — the proof there was no encode/decode cycle.
	type opaque struct{ n int }
	sent := &opaque{n: 42}
	id := stream.NewID()
	if err := b.SendWithHint("a", id, message.Message{Kind: message.KindData, Timestamp: timestamp.New(1), Payload: sent}, comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotA:
		if got, ok := m.Payload.(*opaque); !ok || got != sent {
			t.Fatalf("payload = %#v, want the identical *opaque pointer", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("value never crossed the inproc link")
	}

	// Reply over the accept side, plus a watermark.
	if err := a.SendWithHint("b", id, message.Data(timestamp.New(2), []byte("reply")), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendWithHint("b", id, message.Watermark(timestamp.New(2)), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-gotB:
		case <-time.After(2 * time.Second):
			t.Fatal("reply never crossed the inproc link")
		}
	}

	for name, tr := range map[string]*comm.Transport{"a": a, "b": b} {
		s, r := tr.SentFrames(), tr.ReceivedFrames()
		if s.Gob != 0 || r.Gob != 0 {
			t.Fatalf("%s: gob frames over inproc: sent %+v recv %+v", name, s, r)
		}
		if s.Raw != 0 || s.Typed != 0 {
			t.Fatalf("%s: serialized frames over inproc: sent %+v", name, s)
		}
	}
}

// TestInprocMulticastPayloadOwnership fans one pooled []byte payload out
// to two same-process receivers that both exercise their right to
// recycle it. The two delivered slices must not share a backing array —
// otherwise the pool would hand one buffer to two later owners.
func TestInprocMulticastPayloadOwnership(t *testing.T) {
	got := make(chan []byte, 2)
	handler := func(_ string, _ stream.ID, m message.Message) {
		b := m.Payload.([]byte)
		cp := append([]byte(nil), b...)
		comm.ReleaseMessage(m)
		got <- cp
	}
	var receivers []*comm.Transport
	src, err := comm.Listen("src", "127.0.0.1:0", nil, comm.WithBackend(inproc.New(), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, name := range []string{"r1", "r2"} {
		r, err := comm.Listen(name, "127.0.0.1:0", handler, comm.WithBackend(inproc.New(), ""))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := src.Dial("inproc://" + r.AddrOf("inproc")); err != nil {
			t.Fatal(err)
		}
		receivers = append(receivers, r)
	}

	payload := comm.AcquirePayload(256)
	for i := range payload {
		payload[i] = byte(i)
	}
	n, err := src.MulticastTree(nil, nil, []string{"r1", "r2"}, nil, stream.NewID(), message.Data(timestamp.New(1), payload), comm.FlushHint{})
	if err != nil || n != 2 {
		t.Fatalf("MulticastTree = (%d, %v), want (2, nil)", n, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case b := <-got:
			if len(b) != 256 || b[10] != 10 {
				t.Fatalf("receiver %d got corrupted payload (len %d)", i, len(b))
			}
		case <-time.After(2 * time.Second):
			t.Fatal("fanout value never arrived")
		}
	}
	_ = receivers
}

// TestInprocPeerDeathUnblocks closes one side mid-conversation and
// requires the peer to notice promptly through the value plane.
func TestInprocPeerDeathUnblocks(t *testing.T) {
	a, err := comm.Listen("a", "127.0.0.1:0", nil, comm.WithBackend(inproc.New(), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", nil, comm.WithBackend(inproc.New(), ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Dial("inproc://" + a.AddrOf("inproc")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.SendWithHint("b", stream.NewID(), message.Data(timestamp.New(1), []byte("x")), comm.FlushHint{}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a closed inproc peer kept succeeding")
		}
		time.Sleep(time.Millisecond)
	}
}
