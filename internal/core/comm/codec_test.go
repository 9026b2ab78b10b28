package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// testVec is a typed-frame payload used only by tests; codec IDs >= 900
// are reserved for test codecs.
type testVec struct {
	X  float64
	S  string
	Ns []uint64
}

const testVecCodecID uint64 = 900

func (v testVec) FrameCodec() uint64 { return testVecCodecID }

func (v testVec) MarshalFrame(dst []byte) []byte {
	dst = AppendFloat64(dst, v.X)
	dst = AppendString(dst, v.S)
	dst = AppendUvarint(dst, uint64(len(v.Ns)))
	for _, n := range v.Ns {
		dst = AppendUvarint(dst, n)
	}
	return dst
}

func init() {
	RegisterCodec(Codec{
		ID:      testVecCodecID,
		Name:    "comm.testVec",
		Version: 1,
		Unmarshal: func(body []byte, _ uint8) (any, error) {
			r := NewFrameReader(body)
			var v testVec
			v.X = r.Float64()
			v.S = r.String()
			if n := r.Len(1); n > 0 {
				v.Ns = make([]uint64, n)
				for i := range v.Ns {
					v.Ns[i] = r.Uvarint()
				}
			}
			return v, r.Err()
		},
	})
}

func TestFrameReaderStickyError(t *testing.T) {
	r := NewFrameReader([]byte{0x01, 0x02})
	if got := r.Float64(); got != 0 {
		t.Fatalf("truncated Float64 = %v, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error after truncated read")
	}
	// Every subsequent read stays zero-valued without panicking.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Byte() != 0 || r.Bool() || r.String() != "" {
		t.Fatal("sticky-error reader returned non-zero values")
	}
}

func TestFrameReaderLenRejectsOversizedCount(t *testing.T) {
	// A count claiming more elements than the remaining bytes could hold
	// must fail instead of driving a huge allocation.
	body := binary.AppendUvarint(nil, 1<<40)
	r := NewFrameReader(body)
	if n := r.Len(8); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
	if r.Err() == nil {
		t.Fatal("expected error for oversized element count")
	}
}

func TestRegisterCodecRejectsDuplicatesAndZero(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero ID", func() {
		RegisterCodec(Codec{ID: 0, Unmarshal: func([]byte, uint8) (any, error) { return nil, nil }})
	})
	mustPanic("nil Unmarshal", func() {
		RegisterCodec(Codec{ID: 901})
	})
	mustPanic("duplicate", func() {
		RegisterCodec(Codec{ID: testVecCodecID, Unmarshal: func([]byte, uint8) (any, error) { return nil, nil }})
	})
}

// encodeTypedFrame renders one tagTyped frame to bytes for decode tests.
func encodeTypedFrame(t *testing.T, id stream.ID, m message.Message, codecID uint64, version uint8, marshal func([]byte) []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := writeTypedFrame(bw, id, m, codecID, version, marshal); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTypedFrameRoundTrip(t *testing.T) {
	want := testVec{X: 3.25, S: "edet4", Ns: []uint64{1, 1 << 40, 7}}
	m := message.Data(timestamp.New(42, 3), want)
	frame := encodeTypedFrame(t, 7, m, testVecCodecID, 1, want.MarshalFrame)
	if frame[0] != tagTyped {
		t.Fatalf("tag = %#x, want %#x", frame[0], tagTyped)
	}
	br := bufio.NewReader(bytes.NewReader(frame[1:]))
	id, got, err := readTypedFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || !got.Timestamp.Equal(m.Timestamp) || !got.IsData() {
		t.Fatalf("frame header mismatch: id=%d m=%+v", id, got)
	}
	if !reflect.DeepEqual(got.Payload, want) {
		t.Fatalf("payload = %+v, want %+v", got.Payload, want)
	}
}

func TestTypedFrameVersionSkew(t *testing.T) {
	v := testVec{X: 1}
	m := message.Data(timestamp.New(1), v)
	// A version newer than the local codec must be rejected (the local
	// build cannot know the layout), not mis-decoded.
	frame := encodeTypedFrame(t, 1, m, testVecCodecID, 99, v.MarshalFrame)
	if _, _, err := readTypedFrame(bufio.NewReader(bytes.NewReader(frame[1:]))); err == nil {
		t.Fatal("expected error for newer codec version")
	}
	// Older versions decode: the codec's Unmarshal receives the frame's
	// version byte to pick the right layout.
	frame = encodeTypedFrame(t, 1, m, testVecCodecID, 0, v.MarshalFrame)
	if _, _, err := readTypedFrame(bufio.NewReader(bytes.NewReader(frame[1:]))); err != nil {
		t.Fatalf("version 0 frame rejected: %v", err)
	}
}

func TestTypedFrameUnknownCodec(t *testing.T) {
	v := testVec{X: 1}
	m := message.Data(timestamp.New(1), v)
	frame := encodeTypedFrame(t, 1, m, 9999999, 1, v.MarshalFrame)
	if _, _, err := readTypedFrame(bufio.NewReader(bytes.NewReader(frame[1:]))); err == nil {
		t.Fatal("expected error for unregistered codec")
	}
}

func TestTypedFrameLengthPrefixOverflow(t *testing.T) {
	// Hand-craft a frame whose declared body length exceeds the limit: the
	// reader must fail before allocating.
	buf := binary.AppendUvarint(nil, 1) // stream id
	buf = timestamp.New(1).AppendBinary(buf)
	buf = binary.AppendUvarint(buf, testVecCodecID)
	buf = append(buf, 1)                               // version
	buf = binary.AppendUvarint(buf, maxFramePayload+1) // body length
	if _, _, err := readTypedFrame(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Fatal("expected error for oversized body length")
	}
}

func TestRawFrameLengthPrefixOverflow(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1) // stream id
	buf = append(buf, byte(message.KindData))
	buf = timestamp.New(1).AppendBinary(buf)
	buf = binary.AppendUvarint(buf, maxFramePayload+1)
	if _, _, err := readRawFrame(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Fatal("expected error for oversized raw payload length")
	}
}

// unregisteredPayload implements FramePayload but has no registered codec:
// the transport must fall back to gob rather than emit an undecodable frame.
type unregisteredPayload struct{ V int }

func (unregisteredPayload) FrameCodec() uint64           { return 987654 }
func (unregisteredPayload) MarshalFrame(d []byte) []byte { return d }

// gobOnlyPayload exercises the gob fallback path alongside typed frames.
type gobOnlyPayload struct {
	Label string
	Vals  []float64
}

func collectTransportPair(t *testing.T, aName, bName string, handler Handler) (*Transport, *Transport) {
	t.Helper()
	a, err := Listen(aName, "127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := Listen(bName, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestTransportTypedEndToEnd(t *testing.T) {
	type rec struct {
		id stream.ID
		m  message.Message
	}
	var mu sync.Mutex
	var got []rec
	a, b := collectTransportPair(t, "typed-a", "typed-b", func(_ string, id stream.ID, m message.Message) {
		mu.Lock()
		got = append(got, rec{id, m})
		mu.Unlock()
	})
	want := testVec{X: -2.5, S: "vec", Ns: []uint64{9}}
	if err := b.SendWithHint("typed-a", 3, message.Data(timestamp.New(1), want), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	if err := b.SendWithHint("typed-a", 4, message.Data(timestamp.New(2), 150*time.Millisecond), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: got %d messages", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got[0].m.Payload, want) {
		t.Fatalf("payload 0 = %+v, want %+v", got[0].m.Payload, want)
	}
	if d, ok := got[1].m.Payload.(time.Duration); !ok || d != 150*time.Millisecond {
		t.Fatalf("payload 1 = %+v, want 150ms", got[1].m.Payload)
	}
	sent := b.SentFrames()
	if sent.Typed != 2 || sent.Gob != 0 {
		t.Fatalf("sender frames = %+v, want 2 typed / 0 gob", sent)
	}
	recv := a.ReceivedFrames()
	if recv.Typed != 2 || recv.Gob != 0 {
		t.Fatalf("receiver frames = %+v, want 2 typed / 0 gob", recv)
	}
}

func TestUnregisteredFramePayloadFallsBackToGob(t *testing.T) {
	RegisterPayload(unregisteredPayload{})
	done := make(chan message.Message, 1)
	a, b := collectTransportPair(t, "fb-a", "fb-b", func(_ string, _ stream.ID, m message.Message) {
		done <- m
	})
	_ = a
	if err := b.SendWithHint("fb-a", 1, message.Data(timestamp.New(1), unregisteredPayload{V: 5}), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if p, ok := m.Payload.(unregisteredPayload); !ok || p.V != 5 {
			t.Fatalf("payload = %+v", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	if sent := b.SentFrames(); sent.Gob != 1 || sent.Typed != 0 {
		t.Fatalf("frames = %+v, want 1 gob / 0 typed", sent)
	}
}

// TestMixedCodecsOneConnection interleaves every wire encoding — typed
// frames, raw []byte frames, watermarks, and gob-fallback payloads — on a
// single connection and checks per-stream content and ordering.
func TestMixedCodecsOneConnection(t *testing.T) {
	RegisterPayload(gobOnlyPayload{})
	type rec struct {
		id stream.ID
		m  message.Message
	}
	var mu sync.Mutex
	var got []rec
	a, b := collectTransportPair(t, "mixed-a", "mixed-b", func(_ string, id stream.ID, m message.Message) {
		mu.Lock()
		got = append(got, rec{id, m})
		mu.Unlock()
	})
	_ = a

	const rounds = 50
	var want []rec
	for i := 0; i < rounds; i++ {
		ts := timestamp.New(uint64(i + 1))
		raw := []byte(fmt.Sprintf("frame-%d", i))
		vec := testVec{X: float64(i), S: "mixed", Ns: []uint64{uint64(i), uint64(i * i)}}
		gobbed := gobOnlyPayload{Label: fmt.Sprintf("g%d", i), Vals: []float64{float64(i), 0.5}}
		batch := []rec{
			{1, message.Data(ts, raw)},
			{2, message.Data(ts, vec)},
			{3, message.Data(ts, 10*time.Millisecond*time.Duration(i+1))},
			{4, message.Data(ts, gobbed)},
			{1, message.Watermark(ts)},
		}
		for _, r := range batch {
			if err := b.SendWithHint("mixed-a", r.id, r.m, FlushHint{}); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, batch...)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: got %d of %d messages", n, len(want))
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, w := range want {
		g := got[i]
		if g.id != w.id || g.m.Kind != w.m.Kind || !g.m.Timestamp.Equal(w.m.Timestamp) {
			t.Fatalf("message %d: got (%d, %v, %v), want (%d, %v, %v)",
				i, g.id, g.m.Kind, g.m.Timestamp, w.id, w.m.Kind, w.m.Timestamp)
		}
		if !reflect.DeepEqual(g.m.Payload, w.m.Payload) {
			t.Fatalf("message %d payload = %+v, want %+v", i, g.m.Payload, w.m.Payload)
		}
	}
	sent := b.SentFrames()
	if sent.Raw != 2*rounds || sent.Typed != 2*rounds || sent.Gob != rounds {
		t.Fatalf("sent frames = %+v, want %d raw / %d typed / %d gob", sent, 2*rounds, 2*rounds, rounds)
	}
}

// hintedBursts sends bursts of hinted small frames over one link, requires
// every frame to arrive in order, and returns the sender's CoalesceStats
// once every frame is accounted to a completed flush.
func hintedBursts(t *testing.T) (flushes, coalesced, late uint64) {
	t.Helper()
	const bursts, perBurst = 40, 16
	var received, outOfOrder atomic.Uint64
	_, b := collectTransportPair(t, "dl-a", "dl-b", func(_ string, _ stream.ID, m message.Message) {
		// One read loop delivers, so the n-th frame must carry timestamp n.
		if m.Timestamp.L != received.Add(1) {
			outOfOrder.Add(1)
		}
	})
	payload := make([]byte, 512)
	seq := uint64(0)
	for i := 0; i < bursts; i++ {
		// Generous slack (50ms) on every frame of the burst: the write loop
		// may hold them up to maxCoalesceHold to share a flush.
		hint := FlushHint{FlushBy: time.Now().Add(50 * time.Millisecond)}
		for j := 0; j < perBurst; j++ {
			seq++
			if err := b.SendWithHint("dl-a", 1, message.Data(timestamp.New(seq), payload), hint); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond) // let the hold window close between bursts
	}
	waitFor(t, "every frame delivered and flushed", 10*time.Second, func() bool {
		flushes, coalesced, late = b.CoalesceStats()
		return received.Load() == seq && flushes+coalesced == seq
	})
	if n := outOfOrder.Load(); n != 0 {
		t.Fatalf("%d frames arrived out of order", n)
	}
	return flushes, coalesced, late
}

// TestCoalescingHonorsFlushDeadlines: bursts of hinted small frames arrive
// complete and in order and coalesce into shared flushes. That no flush
// completes past a held frame's FlushBy is a real-time property, asserted
// by the chaos-tagged TestCoalescingNeverFlushesLate.
func TestCoalescingHonorsFlushDeadlines(t *testing.T) {
	// Every frame is accounted, so flushes+coalesced is the frame count and
	// coalesced > 0 is exactly flushes < frames.
	if flushes, coalesced, _ := hintedBursts(t); coalesced == 0 {
		t.Fatalf("%d flushes for %d frames: hinted bursts should share flushes", flushes, flushes+coalesced)
	}
}

// TestUnhintedFramesFlushPromptly guards the latency of hint-free traffic:
// a lone unhinted frame must reach the peer without waiting out any
// coalescing hold.
func TestUnhintedFramesFlushPromptly(t *testing.T) {
	done := make(chan struct{}, 1)
	a, b := collectTransportPair(t, "pr-a", "pr-b", func(string, stream.ID, message.Message) {
		done <- struct{}{}
	})
	_ = a
	start := time.Now()
	if err := b.SendWithHint("pr-a", 1, message.Data(timestamp.New(1), []byte("x")), FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	// Loopback delivery is microseconds; anything near maxCoalesceHold
	// means the unhinted frame sat in the coalescing buffer.
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("unhinted frame took %v", d)
	}
}
