package comm

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// BenchmarkInterWorkerSend measures the data plane's per-message cost for a
// 64KB payload over loopback TCP with gob framing.
func BenchmarkInterWorkerSend(b *testing.B) {
	var received atomic.Int64
	a, err := Listen("a", "127.0.0.1:0", func(string, stream.ID, message.Message) {
		received.Add(1)
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := Listen("c", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Dial(a.Addr()); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	id := stream.NewID()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendWithHint("a", id, message.Data(timestamp.New(uint64(i+1)), payload), FlushHint{}); err != nil {
			b.Fatal(err)
		}
	}
	for received.Load() < int64(b.N) {
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkCommRawRoundtrip measures the full request/response latency of a
// 4KB []byte payload over loopback TCP: c -> a (echo) -> c. This is the
// data-plane path a remote sensor frame takes, and it exercises the
// []byte fast path end to end.
func BenchmarkCommRawRoundtrip(b *testing.B) {
	var echoTo atomic.Pointer[Transport]
	done := make(chan struct{}, 1)
	a, err := Listen("a", "127.0.0.1:0", func(_ string, id stream.ID, m message.Message) {
		_ = echoTo.Load().SendWithHint("c", id, m, FlushHint{})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	echoTo.Store(a)
	c, err := Listen("c", "127.0.0.1:0", func(string, stream.ID, message.Message) {
		done <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Dial(a.Addr()); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	id := stream.NewID()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendWithHint("a", id, message.Data(timestamp.New(uint64(i+1)), payload), FlushHint{}); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}
