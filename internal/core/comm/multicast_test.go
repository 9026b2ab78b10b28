package comm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// fanoutRig is a source transport connected to n receiver transports over
// TCP, each delivering into its own channel.
type fanoutRig struct {
	src   *Transport
	recv  []*Transport
	got   []chan message.Message
	names []string
}

func newFanoutRig(t testing.TB, n int, opts ...func(i int) []Option) *fanoutRig {
	t.Helper()
	rig := &fanoutRig{}
	src, err := Listen("src", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	rig.src = src
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		ch := make(chan message.Message, 1024)
		var extra []Option
		if len(opts) > 0 {
			extra = opts[0](i)
		}
		r, err := Listen(name, "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
			select {
			case ch <- m:
			case <-stop:
			}
		}, extra...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if err := src.Dial(r.Addr()); err != nil {
			t.Fatal(err)
		}
		rig.recv = append(rig.recv, r)
		rig.got = append(rig.got, ch)
		rig.names = append(rig.names, name)
	}
	// Registered last, so it runs first: a handler blocked on its full
	// channel gives up before the cleanups above Close its transport, which
	// waits for the read loop running that handler.
	t.Cleanup(func() { close(stop) })
	return rig
}

func waitFrameBalance(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		acq, rel := BroadcastFrameStats()
		if acq == rel {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("broadcast frames leaked: acquired %d, released %d", acq, rel)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMulticastSingleEncode fans a typed payload out to three peers and
// proves the single-encode property: exactly one shared frame is
// acquired for the whole fanout, every receiver decodes the same value,
// and the frame is released back to the pool once all write loops drain.
func TestMulticastSingleEncode(t *testing.T) {
	rig := newFanoutRig(t, 3)
	acq0, _ := BroadcastFrameStats()

	v := testVec{X: 2.5, S: "fanout", Ns: []uint64{7, 11, 13}}
	n, err := rig.src.MulticastTree(nil, nil, rig.names, nil, stream.NewID(), message.Data(timestamp.New(1), v), FlushHint{})
	if err != nil || n != 3 {
		t.Fatalf("MulticastTree = (%d, %v), want (3, nil)", n, err)
	}
	for i, ch := range rig.got {
		select {
		case m := <-ch:
			got, ok := m.Payload.(testVec)
			if !ok || got.X != v.X || got.S != v.S || len(got.Ns) != 3 {
				t.Fatalf("receiver %d decoded %#v", i, m.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver %d never got the fanout frame", i)
		}
	}
	acq1, _ := BroadcastFrameStats()
	if d := acq1 - acq0; d != 1 {
		t.Fatalf("fanout to 3 peers acquired %d shared frames, want 1", d)
	}
	waitFrameBalance(t)
}

// TestMulticastCodecSkewDowngrade gives one of three receivers a build
// that lacks the testVec codec. The fanout must deliver to all three —
// two through the shared typed frame, the skewed one through its own gob
// envelope — without poisoning the shared path.
func TestMulticastCodecSkewDowngrade(t *testing.T) {
	RegisterPayload(testVec{}) // the downgrade path carries it by gob
	rig := newFanoutRig(t, 3, func(i int) []Option {
		if i == 1 {
			return []Option{WithCodecFilter(func(id uint64) bool { return id != testVecCodecID })}
		}
		return nil
	})

	v := testVec{X: -1, S: "skew", Ns: []uint64{1}}
	n, err := rig.src.MulticastTree(nil, nil, rig.names, nil, stream.NewID(), message.Data(timestamp.New(1), v), FlushHint{})
	if err != nil || n != 3 {
		t.Fatalf("MulticastTree = (%d, %v), want (3, nil)", n, err)
	}
	for i, ch := range rig.got {
		select {
		case m := <-ch:
			got, ok := m.Payload.(testVec)
			if !ok || got.S != v.S {
				t.Fatalf("receiver %d decoded %#v", i, m.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver %d never got the frame", i)
		}
	}
	if g := rig.recv[1].ReceivedFrames().Gob; g == 0 {
		t.Fatal("codec-skewed receiver saw no gob downgrade")
	}
	for _, i := range []int{0, 2} {
		if ty := rig.recv[i].ReceivedFrames().Typed; ty == 0 {
			t.Fatalf("receiver %d saw no typed frame", i)
		}
	}
	waitFrameBalance(t)
}

// TestMulticastBusOversizeFoldsPairwise publishes through a bus whose
// MaxBytes is below the frame size: the bus must count a spill and the
// destinations must still be covered by the pairwise shared-frame path.
func TestMulticastBusOversizeFoldsPairwise(t *testing.T) {
	rig := newFanoutRig(t, 2)
	bus := NewBus(&frameBuf{}, 8) // every realistic frame exceeds 8 bytes

	payload := make([]byte, 1024)
	n, err := rig.src.MulticastTree(bus, rig.names, nil, nil, stream.NewID(), message.Data(timestamp.New(1), payload), FlushHint{})
	if err != nil || n != 2 {
		t.Fatalf("MulticastTree = (%d, %v), want (2, nil)", n, err)
	}
	if bus.Spills() != 1 {
		t.Fatalf("bus spills = %d, want 1", bus.Spills())
	}
	if frames, _ := bus.Stats(); frames != 0 {
		t.Fatalf("bus carried %d frames, want 0", frames)
	}
	for i, ch := range rig.got {
		select {
		case m := <-ch:
			if len(m.Payload.([]byte)) != len(payload) {
				t.Fatalf("receiver %d payload truncated", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver %d never got the folded frame", i)
		}
	}
	waitFrameBalance(t)
}

// TestMulticastMissingPeerStillDeliversRest asserts fanout destinations
// fail independently: one bogus name errors, the realpeers still get the
// frame, and no shared-frame reference leaks.
func TestMulticastMissingPeerStillDeliversRest(t *testing.T) {
	rig := newFanoutRig(t, 2)
	names := append([]string{"ghost"}, rig.names...)
	n, err := rig.src.MulticastTree(nil, nil, names, nil, stream.NewID(), message.Data(timestamp.New(1), []byte("partial")), FlushHint{})
	if err == nil {
		t.Fatal("Multicast with a missing peer returned nil error")
	}
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}
	for i, ch := range rig.got {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver %d never got the frame", i)
		}
	}
	waitFrameBalance(t)
}

// TestMulticastRefcountStress exercises the shared-frame ownership
// protocol under -race: concurrent multicasters, a peer dying
// mid-stream, and transport close racing queued frames. The invariant is
// exact pool accounting — every acquired broadcast frame is released
// exactly once (a double release panics in the frame itself).
func TestMulticastRefcountStress(t *testing.T) {
	rig := newFanoutRig(t, 3)

	// Drain every receiver continuously: each receiver sees more frames
	// than its channel buffers, and a blocked handler would stall the whole
	// pipeline back to the senders.
	drained := make(chan struct{})
	var drainWG sync.WaitGroup
	for _, ch := range rig.got {
		ch := ch
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for {
				select {
				case <-ch:
				case <-drained:
					return
				}
			}
		}()
	}
	defer func() {
		close(drained)
		drainWG.Wait()
	}()

	const senders = 4
	const perSender = 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := stream.NewID()
			for i := 0; i < perSender; i++ {
				payload := make([]byte, 64+(i%1024))
				// Errors are expected once the dying peer drops out;
				// fanout destinations fail independently.
				_, _ = rig.src.MulticastTree(nil, nil, rig.names, nil, id, message.Data(timestamp.New(uint64(i)), payload), FlushHint{FlushBy: time.Now().Add(time.Duration(s) * time.Millisecond)})
			}
		}()
	}
	// Kill one receiver mid-stream: its write loop must drain queued
	// shared frames, and frames enqueued after the drain are swept at the
	// sender's Close.
	time.Sleep(5 * time.Millisecond)
	rig.recv[1].Close()
	wg.Wait()

	// Senders have quiesced (wg.Wait above), so Close's final sweep — the
	// graveyard plus the live-at-Close peers — must leave the accounting
	// exact the moment it returns: no polling, no grace period. A drift
	// here means a frame was stranded in a queue the sweep missed.
	rig.src.Close()
	if acq, rel := BroadcastFrameStats(); acq != rel {
		t.Fatalf("frame accounting drifted across Close: acquired %d, released %d", acq, rel)
	}
}
