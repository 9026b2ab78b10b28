package comm

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestFlushDecision table-tests the write loop's flush rule on synthetic
// clocks: a watermark or an unhinted frame flushes at drain, and hinted
// data holds until min(FlushBy − flushGuard, holdSince + maxCoalesceHold,
// idle), where idle is companyGaps expected gaps past the newest frame.
func TestFlushDecision(t *testing.T) {
	t0 := time.Unix(1000, 0)
	hour := t0.Add(time.Hour)
	type frame struct {
		at      time.Duration // arrival, relative to t0
		n       int
		flushBy time.Time
		closes  bool
	}
	cases := []struct {
		name   string
		frames []frame
		want   time.Time // zero: flush at drain
		spin   bool
	}{
		{"watermark", []frame{{0, 40, hour, true}}, time.Time{}, false},
		{"unhinted data", []frame{{0, 64, time.Time{}, false}}, time.Time{}, false},
		{"hinted data then its watermark", []frame{{0, 64, hour, false}, {time.Microsecond, 40, hour, true}}, time.Time{}, false},
		{"hinted data waits out the hold cap", []frame{{0, 64, hour, false}}, t0.Add(maxCoalesceHold), false},
		{"hinted data bounded by its deadline", []frame{{0, 64, t0.Add(time.Millisecond), false}}, t0.Add(time.Millisecond - flushGuard), false},
		{"earliest deadline wins", []frame{{0, 64, hour, false}, {time.Millisecond / 4, 64, t0.Add(time.Millisecond), false}}, t0.Add(time.Millisecond - flushGuard), false},
		{"hold cap counts from the oldest frame", []frame{{0, 64, hour, false}, {time.Millisecond / 2, 64, hour, false}}, t0.Add(maxCoalesceHold), false},
		{"idle producer", []frame{{0, 64, hour, false}, {10 * time.Microsecond, 64, hour, false}}, t0.Add(10*time.Microsecond + companyGaps*10*time.Microsecond), false},
		{"burst-rate producer spins", []frame{{0, 64, hour, false}, {time.Microsecond, 64, hour, false}}, time.Time{}, true},
		{"full budget", []frame{{0, flushBudget, hour, false}}, time.Time{}, false},
	}
	for _, tc := range cases {
		var c coalescer
		for _, f := range tc.frames {
			c.add(t0.Add(f.at), f.n, f.flushBy, f.closes)
		}
		at, spin := c.flushAt()
		if !at.Equal(tc.want) || spin != tc.spin {
			t.Errorf("%s: flushAt = (%v, %v), want (%v, %v)", tc.name, at, spin, tc.want, tc.spin)
		}
	}

	// A flush clears the held frames but keeps the link's gap estimate.
	var c coalescer
	c.add(t0, 64, time.Time{}, false)
	c.add(t0.Add(time.Microsecond), 64, hour, false)
	c.flushed()
	if c.held != 0 || c.buffered != 0 || c.mustFlush || !c.holdBy.IsZero() || !c.holdSince.IsZero() {
		t.Fatalf("flushed left held state behind: %+v", c)
	}
	if c.gapNs != float64(time.Microsecond) {
		t.Fatalf("flushed reset the gap EWMA to %v", c.gapNs)
	}
}

// TestWatermarkClosesEveryEnqueuePath captures what each hinted enqueue
// site queues for a link: watermarks carry the closes bit that ends the
// coalescing hold, data frames do not.
func TestWatermarkClosesEveryEnqueuePath(t *testing.T) {
	tr, err := Listen("cap", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, other := net.Pipe()
	defer other.Close()
	// A relay-capable link with no write loop: each send below enqueues one
	// message, which stays in out for the test to inspect.
	p := &peer{name: "x", conn: conn, relay: true, out: make(chan outMsg, 1), done: make(chan struct{})}
	// A dead relay: sends to it fail, so its cover falls back to the
	// pairwise path.
	dead := &peer{name: "dead", relay: true, done: make(chan struct{})}
	dead.once.Do(func() { close(dead.done) })
	tr.peers.Store(&map[string]*peer{"x": p, "dead": dead})

	hint := FlushHint{FlushBy: time.Now().Add(time.Hour)}
	const id stream.ID = 7
	paths := map[string]func(m message.Message) error{
		"SendWithHint": func(m message.Message) error { return tr.SendWithHint("x", id, m, hint) },
		"MulticastTree pairwise": func(m message.Message) error {
			_, err := tr.MulticastTree(nil, nil, []string{"x"}, nil, id, m, hint)
			return err
		},
		"MulticastTree relay": func(m message.Message) error {
			_, err := tr.MulticastTree(nil, nil, nil, []RelayDest{{Relay: "x", Cover: []string{"y"}}}, id, m, hint)
			return err
		},
		"MulticastTree pairwise fallback": func(m message.Message) error {
			if n, _ := tr.MulticastTree(nil, nil, nil, []RelayDest{{Relay: "dead", Cover: []string{"x"}}}, id, m, hint); n != 1 {
				return fmt.Errorf("fallback delivered %d, want 1", n)
			}
			return nil
		},
		"RepublishWithHint": func(m message.Message) error {
			sink := frameBuf{b: AcquirePayload(64)[:0]}
			if _, err := writeRawFrame(&sink, id, m); err != nil {
				return err
			}
			_, err := tr.RepublishWithHint(nil, nil, []string{"x"}, sink.b, false, id, hint)
			return err
		},
	}
	for name, send := range paths {
		for _, m := range []message.Message{
			message.Data(timestamp.New(1), []byte("plan")),
			message.Watermark(timestamp.New(1)),
		} {
			if err := send(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			o := <-p.out
			if o.closes != m.IsWatermark() || !o.flushBy.Equal(hint.FlushBy) {
				t.Errorf("%s %v: queued closes=%v flushBy=%v", name, m.Kind, o.closes, o.flushBy)
			}
			if o.bcast != nil {
				o.bcast.release()
			}
		}
	}

	// Republished typed frames are always data.
	v := testVec{X: 1}
	sink := frameBuf{b: AcquirePayload(64)[:0]}
	if _, err := writeTypedFrame(&sink, id, message.Data(timestamp.New(1), v), testVecCodecID, 1, v.MarshalFrame); err != nil {
		t.Fatal(err)
	}
	if frameCloses(sink.b) {
		t.Fatal("typed frame reported as a watermark")
	}
	RecyclePayload(sink.b)
}

// TestHintedPairSharesOneFlush sends a data frame hinted an hour out and,
// once the sender's write loop holds it, its watermark, on every hinted
// enqueue path: the data must wait for company instead of flushing alone,
// and the pair must share one flush. A sender descheduled past the hold
// cap legitimately splits a pair, so each path gets a few attempts.
func TestHintedPairSharesOneFlush(t *testing.T) {
	rig := newRelayRig(t, 1)
	hint := FlushHint{FlushBy: time.Now().Add(time.Hour)}
	id := stream.NewID()
	// buffered spins until tr's write loop to peer has encoded n frames.
	buffered := func(tr *Transport, peer string, n uint64) {
		p := (*tr.peers.Load())[peer]
		for deadline := time.Now().Add(5 * time.Second); p.statFrames.Load() < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("%s never encoded frame %d for %s", tr.name, n, peer)
				return
			}
		}
	}
	// The relay takes the next envelope only once its republished data
	// frame sits in its buffer to the consumer.
	h := RelayHandler(func(_ string, id stream.ID, cover []string, _ func() (message.Message, error), frame []byte, typed bool, hint FlushHint) {
		n := (*rig.relay.peers.Load())["a"].statFrames.Load()
		closes := frameCloses(frame)
		if _, err := rig.relay.RepublishWithHint(nil, nil, cover, frame, typed, id, hint); err != nil {
			t.Errorf("republish: %v", err)
		}
		if !closes {
			buffered(rig.relay, "a", n+1)
		}
	})
	rig.handler.Store(&h)
	paths := []struct {
		name    string
		link    string       // src's link the pair leaves on
		senders []*Transport // transports whose flushes carry the pair
		send    func(m message.Message) error
	}{
		{"SendWithHint", "a", []*Transport{rig.src}, func(m message.Message) error {
			return rig.src.SendWithHint("a", id, m, hint)
		}},
		{"MulticastTree pairwise", "a", []*Transport{rig.src}, func(m message.Message) error {
			_, err := rig.src.MulticastTree(nil, nil, []string{"a"}, nil, id, m, hint)
			return err
		}},
		// The relay envelope leaves src; the relay's handler republishes
		// the inner frame with RepublishWithHint.
		{"MulticastTree+RepublishWithHint", "relay", []*Transport{rig.src, rig.relay}, func(m message.Message) error {
			_, err := rig.src.MulticastTree(nil, nil, nil, []RelayDest{{Relay: "relay", Cover: []string{"a"}}}, id, m, hint)
			return err
		}},
	}
	// accounted is a sender's flush count and how many frames its completed
	// flushes carried (every flush adds one to flushes, and each frame
	// beyond the first in it one to coalesced).
	accounted := func(s *Transport) (flushes, frames uint64) {
		f, c, _ := s.CoalesceStats()
		return f, f + c
	}
	ts := uint64(0)
	for _, path := range paths {
		shared := false
		for attempt := 0; attempt < 5 && !shared; attempt++ {
			flushes0 := make([]uint64, len(path.senders))
			frames0 := make([]uint64, len(path.senders))
			for i, s := range path.senders {
				flushes0[i], frames0[i] = accounted(s)
			}
			ts++
			pair := []message.Message{
				message.Data(timestamp.New(ts), []byte("plan")),
				message.Watermark(timestamp.New(ts)),
			}
			n := (*rig.src.peers.Load())[path.link].statFrames.Load()
			if err := path.send(pair[0]); err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			buffered(rig.src, path.link, n+1)
			if err := path.send(pair[1]); err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			for i, m := range rig.await(t, 2) {
				if m.Kind != pair[i].Kind || !m.Timestamp.Equal(pair[i].Timestamp) {
					t.Fatalf("%s: message %d = %v, want %v", path.name, i, m, pair[i])
				}
			}
			shared = true
			for i, s := range path.senders {
				// Delivery can overtake the sender's flush bookkeeping:
				// wait until its flushes account for both frames.
				var flushes, frames uint64
				waitFor(t, path.name+" flush accounting", 5*time.Second, func() bool {
					flushes, frames = accounted(s)
					return frames >= frames0[i]+2
				})
				shared = shared && flushes-flushes0[i] == 1
			}
		}
		if !shared {
			t.Errorf("%s: no data+watermark pair shared a flush in 5 attempts", path.name)
		}
	}
	waitFrameBalance(t)
}

// TestSendBytesRoundtrip: a []byte payload arrives byte-for-byte with its
// timestamp, and the send records per-peer coalescing telemetry.
func TestSendBytesRoundtrip(t *testing.T) {
	got := make(chan message.Message, 1)
	a, err := Listen("sb-a", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		got <- m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := Listen("sb-c", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}

	payload := []byte("deadline-driven")
	ts := timestamp.New(7, 3)
	if err := c.SendWithHint("sb-a", 42, message.Data(ts, payload), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	m := <-got
	if !m.IsData() || !m.Timestamp.Equal(ts) {
		t.Fatalf("bad message %v", m)
	}
	if b, ok := m.Payload.([]byte); !ok || !bytes.Equal(b, payload) {
		t.Fatalf("payload %v, want %q", m.Payload, payload)
	}

	stats := c.PeerCoalesceStats()
	ps, ok := stats["sb-a"]
	if !ok {
		t.Fatalf("no per-peer stats for sb-a: %v", stats)
	}
	if ps.Frames == 0 || ps.Bytes == 0 {
		t.Fatalf("per-peer counters empty: %+v", ps)
	}
}
