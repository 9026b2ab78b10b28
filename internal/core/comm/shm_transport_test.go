package comm_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func shmBackend(t testing.TB) *shm.Backend {
	t.Helper()
	b := shm.New()
	b.Dir = t.TempDir()
	return b
}

// TestTransportOverShm runs the full framed transport — handshake, typed
// and raw frames, coalescing — over the shared-memory backend and checks
// both sides classify the peer link as scheme "shm" with zero gob frames.
func TestTransportOverShm(t *testing.T) {
	gotA := make(chan message.Message, 16)
	gotB := make(chan message.Message, 16)
	a, err := comm.Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotA <- m },
		comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { gotB <- m },
		comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ringAddr := a.AddrOf("shm")
	if ringAddr == "" {
		t.Fatal("transport with shm backend advertises no shm address")
	}
	if err := b.Dial("shm://" + ringAddr); err != nil {
		t.Fatal(err)
	}
	if s := b.PeerSchemes()["a"]; s != "shm" {
		t.Fatalf("dialer peer scheme = %q, want shm", s)
	}
	if s := a.PeerSchemes()["b"]; s != "shm" {
		t.Fatalf("acceptor peer scheme = %q, want shm", s)
	}

	id := stream.NewID()
	payload := []byte("over shared memory")
	if err := b.SendWithHint("a", id, message.Data(timestamp.New(1), payload), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotA:
		if string(m.Payload.([]byte)) != string(payload) {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never crossed the ring")
	}
	// Reply over the accept-side session, plus a watermark to exercise
	// the non-data raw path.
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
			t.Fatal("reply never crossed the ring")
		}
	}
	for name, tr := range map[string]*comm.Transport{"a": a, "b": b} {
		if s, r := tr.SentFrames(), tr.ReceivedFrames(); s.Gob != 0 || r.Gob != 0 {
			t.Fatalf("%s: gob frames over shm: sent %+v recv %+v", name, s, r)
		}
	}
}

// TestTransportShmPooledRoundtrip pushes a burst of raw sends through a
// ring link whose receiver recycles each pooled body with ReleaseMessage,
// as the data plane does, verifying ordering survives ring wraparound.
func TestTransportShmPooledRoundtrip(t *testing.T) {
	type rec struct {
		seq  uint64
		body []byte
	}
	// Buffers the whole burst: sends on a ring link apply backpressure
	// synchronously, so a handler blocked on this channel would stall the
	// single-goroutine send loop below.
	got := make(chan rec, 512)
	a, err := comm.Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		body := append([]byte(nil), m.Payload.([]byte)...)
		got <- rec{m.Timestamp.L, body}
		comm.ReleaseMessage(m)
	}, comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", nil, comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial("shm://" + a.AddrOf("shm")); err != nil {
		t.Fatal(err)
	}

	id := stream.NewID()
	const n = 512
	for i := 0; i < n; i++ {
		// 4KB frames: n of them wrap the 1MB default ring several times.
		payload := make([]byte, 4096)
		payload[0] = byte(i)
		if err := b.SendWithHint("a", id, message.Data(timestamp.New(uint64(i)), payload), comm.FlushHint{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-got:
			if r.seq != uint64(i) || r.body[0] != byte(i) || len(r.body) != 4096 {
				t.Fatalf("frame %d: got seq %d first byte %d len %d", i, r.seq, r.body[0], len(r.body))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
}

// countingHook wraps conns and counts the bytes flowing through the
// wrapper, proving ConnHook fault injection sits in the byte path even on
// ring links (a wrapped conn must lose its BufferedConn fast path).
type countingHook struct{ read, wrote atomic.Uint64 }

type countingConn struct {
	net.Conn
	h *countingHook
}

func (h *countingHook) WrapConn(c net.Conn) net.Conn { return &countingConn{Conn: c, h: h} }

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.h.read.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.h.wrote.Add(uint64(n))
	return n, err
}

// TestConnHookSeesShmBytes dials a ring link with a ConnHook installed and
// requires every handshake and data byte to pass through the hook wrapper.
func TestConnHookSeesShmBytes(t *testing.T) {
	hook := &countingHook{}
	got := make(chan message.Message, 1)
	a, err := comm.Listen("a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { got <- m },
		comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", nil, comm.WithConnHook(hook),
		comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial("shm://" + a.AddrOf("shm")); err != nil {
		t.Fatal(err)
	}
	if err := b.SendWithHint("a", stream.NewID(), message.Data(timestamp.New(1), []byte("audited")), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived through hooked ring")
	}
	if hook.wrote.Load() == 0 || hook.read.Load() == 0 {
		t.Fatalf("hook saw wrote=%d read=%d bytes; ring bypassed the ConnHook seam",
			hook.wrote.Load(), hook.read.Load())
	}
}

// BenchmarkShmRawRoundtrip measures the same 4KB echo as
// BenchmarkCommRawRoundtrip but over the shared-memory ring backend with
// the pooled send/receive discipline: encode into the ring, hand the
// received body out of the pool, release it after consumption. A ring
// link frames and publishes synchronously, so the echo side's body is
// free to recycle as soon as its send returns.
func BenchmarkShmRawRoundtrip(b *testing.B) {
	var echoTo atomic.Pointer[comm.Transport]
	done := make(chan struct{}, 1)
	a, err := comm.Listen("a", "127.0.0.1:0", func(_ string, id stream.ID, m message.Message) {
		if echoTo.Load().SendWithHint("c", id, m, comm.FlushHint{}) == nil {
			comm.ReleaseMessage(m)
		}
	}, comm.WithBackend(shmBackend(b), ""))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	echoTo.Store(a)
	c, err := comm.Listen("c", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		comm.ReleaseMessage(m)
		done <- struct{}{}
	}, comm.WithBackend(shmBackend(b), ""))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Dial("shm://" + a.AddrOf("shm")); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	// Box the slice once: the loop measures the transport, not the
	// interface conversion.
	var body any = payload
	id := stream.NewID()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendWithHint("a", id, message.Data(timestamp.New(uint64(i+1)), body), comm.FlushHint{}); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}
