package lattice

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func TestNewOpQueuePinnedSharesHomeShard(t *testing.T) {
	l := New(4)
	defer l.Stop()
	a := l.NewOpQueuePinned(ModeSequential, 3)
	b := l.NewOpQueuePinned(ModeSequential, 3)
	c := l.NewOpQueuePinned(ModeSequential, 7) // 7 % 4 == 3 as well
	if a.home != b.home || a.home != c.home {
		t.Fatalf("homes differ: %d %d %d", a.home, b.home, c.home)
	}
	d := l.NewOpQueuePinned(ModeSequential, 2)
	if d.home == a.home {
		t.Fatalf("distinct keys mapped to same shard: %d", d.home)
	}
	// Negative keys must not panic and must stay in range.
	e := l.NewOpQueuePinned(ModeSequential, -1)
	if e.home < 0 || e.home >= 4 {
		t.Fatalf("negative key home out of range: %d", e.home)
	}
}

func TestPinnedQueuesStillExecute(t *testing.T) {
	l := New(2)
	defer l.Stop()
	q := l.NewOpQueuePinned(ModeSequential, 5)
	var ran atomic.Int32
	for i := 0; i < 100; i++ {
		l.SubmitDeadline(q, KindMessage, ts(uint64(i+1)), NoDeadline, func() { ran.Add(1) })
	}
	l.Quiesce()
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100", ran.Load())
	}
}

// TestSequentialPingPong bounces a lone in-flight item between the
// submitting goroutine and the pool: every round parks a lattice
// goroutine and needs the submission's wake, and every callback runs once,
// in order. A lost wake hangs the test.
func TestSequentialPingPong(t *testing.T) {
	l := New(4)
	defer l.Stop()
	q := l.NewOpQueue(ModeSequential)
	var seq atomic.Uint64

	const rounds = 5000
	for i := 0; i < rounds; i++ {
		want := uint64(i + 1)
		l.SubmitDeadline(q, KindMessage, ts(want), NoDeadline, func() {
			if prev := seq.Swap(want); prev != want-1 {
				t.Errorf("callback %d ran after %d", want, prev)
			}
		})
		for seq.Load() < want {
			runtime.Gosched()
		}
	}
}

// BenchmarkLatticePingPong measures single-item submit→execute latency with
// one in-flight callback.
func BenchmarkLatticePingPong(b *testing.B) {
	l := New(4)
	defer l.Stop()
	q := l.NewOpQueue(ModeSequential)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := uint64(i + 1)
		l.SubmitDeadline(q, KindMessage, timestamp.New(want), NoDeadline, func() { seq.Store(want) })
		for seq.Load() != want {
			runtime.Gosched()
		}
	}
}
