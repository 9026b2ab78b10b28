package comm_test

import (
	"testing"
	"time"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestShmSpillChunkedOversizeFrame pushes a frame four times the ring
// capacity through a tiny shm link: the chunked spill path must stream it
// in ring-sized pieces (counted per link as ShmSpillCount) and the
// receiver must reassemble it intact.
func TestShmSpillChunkedOversizeFrame(t *testing.T) {
	got := make(chan message.Message, 4)
	mk := func(name string, h func(string, stream.ID, message.Message)) *comm.Transport {
		b := shm.New()
		b.Dir = t.TempDir()
		b.RingBytes = 4096
		tr, err := comm.Listen(name, "127.0.0.1:0", h, comm.WithBackend(b, ""))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	a := mk("a", func(_ string, _ stream.ID, m message.Message) { got <- m })
	b := mk("b", nil)
	if err := b.Dial("shm://" + a.AddrOf("shm")); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 16<<10) // 4x the ring
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := b.SendWithHint("a", stream.NewID(), message.Data(timestamp.New(1), payload), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		g := m.Payload.([]byte)
		if len(g) != len(payload) {
			t.Fatalf("oversize frame truncated: %d of %d bytes", len(g), len(payload))
		}
		for i := range g {
			if g[i] != payload[i] {
				t.Fatalf("oversize frame corrupted at byte %d", i)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversize frame never crossed the ring")
	}

	stats := b.PeerCoalesceStats()["a"]
	if stats.ShmSpillCount == 0 {
		t.Fatalf("16KB frame through a 4KB ring recorded no spills: %+v", stats)
	}
}

// TestMulticastBusOverBroadcastGroup publishes a fanout through a real
// SPMC broadcast ring: two attached readers each decode the one published
// frame with comm.ReadFrame, the pairwise links carry nothing, and when
// the bus medium dies the same call falls back to the pairwise path.
func TestMulticastBusOverBroadcastGroup(t *testing.T) {
	b := shm.New()
	b.Dir = t.TempDir()
	group, err := b.NewBroadcastGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	bus := comm.NewBus(group.Sink(), 0)

	// The bus destinations must also be connected peers (the fallback
	// path); their handlers record link-delivered frames.
	linkGot := make(chan message.Message, 16)
	src, err := comm.Listen("src", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	names := []string{"r0", "r1"}
	for _, name := range names {
		r, err := comm.Listen(name, "127.0.0.1:0",
			func(_ string, _ stream.ID, m message.Message) { linkGot <- m })
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := src.Dial(r.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	var readers []*shm.BusReader
	for _, name := range names {
		rd, err := shm.JoinBroadcast(group.Addr(), name)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		readers = append(readers, rd)
	}

	id := stream.NewID()
	payload := []byte("one publish, many readers")
	n, err := src.MulticastTree(bus, names, nil, nil, id, message.Data(timestamp.New(7), payload), comm.FlushHint{})
	if err != nil || n != 2 {
		t.Fatalf("MulticastTree = (%d, %v), want (2, nil)", n, err)
	}
	if frames, _ := bus.Stats(); frames != 1 {
		t.Fatalf("bus carried %d frames, want 1", frames)
	}
	for i, rd := range readers {
		gid, m, err := comm.ReadFrame(rd)
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if gid != id || string(m.Payload.([]byte)) != string(payload) {
			t.Fatalf("reader %d decoded (%v, %#v)", i, gid, m.Payload)
		}
		comm.ReleaseMessage(m)
	}
	select {
	case <-linkGot:
		t.Fatal("bus fanout leaked a frame onto a pairwise link")
	case <-time.After(50 * time.Millisecond):
	}

	// Kill the medium: the sticky bus error must fold the destinations
	// back into the pairwise shared-frame path.
	group.Close()
	n, err = src.MulticastTree(bus, names, nil, nil, id, message.Data(timestamp.New(8), payload), comm.FlushHint{})
	if n != 2 {
		t.Fatalf("post-close MulticastTree delivered %d, want 2 (err %v)", n, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case m := <-linkGot:
			if string(m.Payload.([]byte)) != string(payload) {
				t.Fatalf("fallback payload = %q", m.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("fallback frame never arrived pairwise")
		}
	}
}
