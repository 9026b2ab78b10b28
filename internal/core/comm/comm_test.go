package comm

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func TestEnvelopeRoundTripBytes(t *testing.T) {
	id := stream.NewID()
	payload := []byte("sensor frame")
	m := message.Data(timestamp.New(7, 2), payload)
	gotID, gotM := FromEnvelope(ToEnvelope(id, m))
	if gotID != id {
		t.Fatalf("stream id = %d, want %d", gotID, id)
	}
	if !gotM.Timestamp.Equal(m.Timestamp) || !gotM.IsData() {
		t.Fatalf("message = %v", gotM)
	}
	if !bytes.Equal(gotM.Payload.([]byte), payload) {
		t.Fatalf("payload = %v", gotM.Payload)
	}
}

func TestEnvelopeRoundTripWatermarkAndTop(t *testing.T) {
	id := stream.NewID()
	_, w := FromEnvelope(ToEnvelope(id, message.Watermark(timestamp.New(4))))
	if !w.IsWatermark() || w.Timestamp.L != 4 {
		t.Fatalf("watermark = %v", w)
	}
	_, top := FromEnvelope(ToEnvelope(id, message.Top()))
	if !top.IsTop() {
		t.Fatalf("top = %v", top)
	}
}

type obstacle struct {
	X, Y float64
	Tag  string
}

func TestTransportDeliversStructs(t *testing.T) {
	RegisterPayload(obstacle{})
	type rcv struct {
		id stream.ID
		m  message.Message
	}
	got := make(chan rcv, 10)
	a, err := Listen("a", "127.0.0.1:0", func(_ string, id stream.ID, m message.Message) {
		got <- rcv{id, m}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	id := stream.NewID()
	want := obstacle{X: 1.5, Y: -2, Tag: "ped"}
	if err := b.SendWithHint("a", id, message.Data(timestamp.New(3), want), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.id != id {
			t.Fatalf("stream id = %d, want %d", r.id, id)
		}
		if o := r.m.Payload.(obstacle); o != want {
			t.Fatalf("payload = %+v", o)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestTransportBidirectional(t *testing.T) {
	gotA := make(chan message.Message, 1)
	gotB := make(chan message.Message, 1)
	a, err := Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotA <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotB <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	id := stream.NewID()
	if err := b.SendWithHint("a", id, message.Data(timestamp.New(1), []byte("to-a")), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gotA:
	case <-time.After(2 * time.Second):
		t.Fatal("a never received")
	}
	// The accept side registered b as a peer too: reply over the same
	// session.
	if err := a.SendWithHint("b", id, message.Data(timestamp.New(2), []byte("to-b")), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gotB:
	case <-time.After(2 * time.Second):
		t.Fatal("b never received")
	}
}

func TestTransportOrderingPerPeer(t *testing.T) {
	var mu sync.Mutex
	var seen []uint64
	a, err := Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		mu.Lock()
		seen = append(seen, m.Timestamp.L)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	id := stream.NewID()
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.SendWithHint("a", id, message.Data(timestamp.New(uint64(i)), []byte{1}), FlushHint{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		cnt := len(seen)
		mu.Unlock()
		if cnt == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", cnt, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range seen {
		if seen[i] != uint64(i) {
			t.Fatalf("out-of-order delivery at %d: %d", i, seen[i])
		}
	}
	if sent, _ := b.Counters(); sent != n {
		t.Fatalf("sent counter = %d", sent)
	}
	if _, recv := a.Counters(); recv != n {
		t.Fatalf("received counter = %d", recv)
	}
}

// TestRawFastPathRoundTrip drives []byte payloads and watermarks — the
// binary fast path — over a real TCP connection, interleaved with gob-path
// struct payloads to prove both framings coexist on one gob-initialized
// stream. None of the raw frames touch reflection.
func TestRawFastPathRoundTrip(t *testing.T) {
	RegisterPayload(obstacle{})
	got := make(chan message.Message, 16)
	a, err := Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		got <- m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	id := stream.NewID()
	sent := []message.Message{
		message.Data(timestamp.New(7, 3, 1), []byte("camera-frame")),
		message.Watermark(timestamp.New(7, 3, 1)),
		message.Data(timestamp.New(8), obstacle{X: 1, Tag: "gob"}), // gob fallback
		message.Data(timestamp.New(9, 2), []byte{}),                // empty raw payload
		message.Data(timestamp.New(10), obstacle{X: 2, Tag: "gob2"}),
		message.Data(timestamp.New(11), []byte("after-gob")),
		message.Top(),
	}
	for _, m := range sent {
		if err := b.SendWithHint("a", id, m, FlushHint{}); err != nil {
			t.Fatalf("send %v: %v", m, err)
		}
	}
	for i, want := range sent {
		var m message.Message
		select {
		case m = <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
		if m.Kind != want.Kind || !m.Timestamp.Equal(want.Timestamp) || m.Timestamp.IsTop() != want.Timestamp.IsTop() {
			t.Fatalf("message %d = %v, want %v", i, m, want)
		}
		switch wp := want.Payload.(type) {
		case []byte:
			if !bytes.Equal(m.Payload.([]byte), wp) {
				t.Fatalf("message %d payload = %q, want %q", i, m.Payload, wp)
			}
		case obstacle:
			if m.Payload.(obstacle) != wp {
				t.Fatalf("message %d payload = %+v, want %+v", i, m.Payload, wp)
			}
		}
	}
	// Coordinates must survive the binary timestamp codec exactly.
	if ts := sent[0].Timestamp; ts.Coordinate(0) != 3 || ts.Coordinate(1) != 1 {
		t.Fatalf("test corrupted its own fixture: %v", ts)
	}
	if sentN, _ := b.Counters(); sentN != uint64(len(sent)) {
		t.Fatalf("sent counter = %d, want %d", sentN, len(sent))
	}
	if _, recv := a.Counters(); recv != uint64(len(sent)) {
		t.Fatalf("received counter = %d, want %d", recv, len(sent))
	}
}

// Regression for the sent-counter overcount: a Send that fails because the
// connection closed underneath it must not bump the counter. The remote
// handler blocks so TCP backpressure fills the outbound queue, the sender
// wedges in Send, and Close fails that Send via the done channel.
func TestSendFailureDoesNotCountAsSent(t *testing.T) {
	unblock := make(chan struct{})
	a, err := Listen("a", "127.0.0.1:0", func(string, stream.ID, message.Message) {
		<-unblock
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer close(unblock) // runs before a.Close, releasing a's readLoop
	c, err := Listen("c", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	id := stream.NewID()
	payload := make([]byte, 64<<10)
	progress := make(chan struct{}, 1)
	var okSends atomic.Uint64
	var failedSends atomic.Uint64
	go func() {
		for i := 0; ; i++ {
			if err := c.SendWithHint("a", id, message.Data(timestamp.New(uint64(i+1)), payload), FlushHint{}); err != nil {
				failedSends.Add(1)
				return
			}
			okSends.Add(1)
			select {
			case progress <- struct{}{}:
			default:
			}
		}
	}()
	// Wait until the sender makes no progress for a while: it is wedged in
	// Send with the queue and socket buffers full.
	idle := 0
	for idle < 5 {
		select {
		case <-progress:
			idle = 0
		case <-time.After(100 * time.Millisecond):
			idle++
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for failedSends.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender never observed the closed connection")
		}
		time.Sleep(time.Millisecond)
	}
	if sent, _ := c.Counters(); sent != okSends.Load() {
		t.Fatalf("sent counter = %d, want %d successful sends (failed send was counted)",
			sent, okSends.Load())
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SendWithHint("ghost", stream.NewID(), message.Top(), FlushHint{}); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

// TestDialBackoffGivesUpWithoutSleeping dials a closed port once with an
// hour-long backoff step: the error must come back at once, with no sleep
// after the final attempt (a sleep there hangs until -timeout).
func TestDialBackoffGivesUpWithoutSleeping(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.DialBackoff(closed, 1, time.Hour); err == nil {
		t.Fatalf("DialBackoff to closed port %s succeeded", closed)
	}
}

func TestCloseStopsCleanly(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		a.Close()
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestManyPeers(t *testing.T) {
	hub, err := Listen("hub", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var spokes []*Transport
	counts := make([]chan struct{}, 5)
	for i := 0; i < 5; i++ {
		ch := make(chan struct{}, 1)
		counts[i] = ch
		s, err := Listen(fmt.Sprintf("s%d", i), "127.0.0.1:0", func(_ string, _ stream.ID, _ message.Message) {
			ch <- struct{}{}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Dial(hub.Addr()); err != nil {
			t.Fatal(err)
		}
		spokes = append(spokes, s)
	}
	// Dial returns only once the hub's accept side has registered the spoke.
	if n := len(hub.Peers()); n != 5 {
		t.Fatalf("hub registered %d peers, want 5", n)
	}
	id := stream.NewID()
	for i := 0; i < 5; i++ {
		if err := hub.SendWithHint(fmt.Sprintf("s%d", i), id, message.Data(timestamp.New(0), []byte("x")), FlushHint{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ch := range counts {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("spoke %d never received", i)
		}
	}
	_ = spokes
}
