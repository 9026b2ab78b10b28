package comm

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestReadRawFrameTruncatedRecyclesPayload pins the error path the bufown
// analyzer flagged: a raw frame whose payload is cut short must return the
// pooled buffer it acquired, not drop it. The test proves the recycle by
// pointer identity — seed the size class with a marked buffer, fail a read,
// and require the next acquire of that class to hand the same array back.
func TestReadRawFrameTruncatedRecyclesPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector; pool identity is not observable")
	}
	// sync.Pool empties on GC; hold it off so the round trip is deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A pooled buffer sits in the current P's private slot, which other Ps
	// cannot reach: with several Ps, a goroutine that migrates between the
	// seed and the read finds another P's buffer, or none. One P makes the
	// identity observable.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// 3MiB rounds up to the 4MiB class. Drain whatever earlier tests left
	// in that class (holding the refs so they cannot be re-pooled), then
	// seed it with exactly one marked buffer.
	const plen = 3 << 20
	hold := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		hold = append(hold, AcquirePayload(plen))
	}
	_ = hold
	marked := make([]byte, 1<<22)
	RecyclePayload(marked)

	// A raw frame body (tag already consumed): stream id, kind, timestamp,
	// declared payload length — then a single payload byte, so io.ReadFull
	// fails partway with ErrUnexpectedEOF.
	var frame []byte
	frame = binary.AppendUvarint(frame, 42)
	frame = append(frame, byte(message.KindData))
	frame = timestamp.New(7).AppendBinary(frame)
	frame = binary.AppendUvarint(frame, plen)
	frame = append(frame, 0xAB)

	_, _, err := readRawFrame(bytes.NewReader(frame))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("readRawFrame on truncated payload = %v, want %v", err, io.ErrUnexpectedEOF)
	}

	// Deliberately not recycled: leaving the class empty keeps repeated
	// runs (-count) from finding a stale buffer ahead of the seeded one.
	got := AcquirePayload(plen)
	if &got[0] != &marked[0] {
		t.Fatal("truncated read did not recycle its pooled payload: next acquire got a different buffer")
	}
}
