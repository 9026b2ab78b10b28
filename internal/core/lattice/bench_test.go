package lattice

import (
	"sync/atomic"
	"testing"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// BenchmarkSubmitExecute measures the lattice's per-callback scheduling
// overhead (submit -> dispatch -> run -> complete) for a no-op callback.
func BenchmarkSubmitExecute(b *testing.B) {
	l := New(4)
	defer l.Stop()
	q := l.NewOpQueue(ModeSequential)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.SubmitDeadline(q, KindMessage, timestamp.New(uint64(i)), NoDeadline, func() {})
	}
	l.Quiesce()
}

// BenchmarkLatticeThroughput measures end-to-end scheduling throughput for a
// single producer fanning no-op message callbacks across 16 parallel
// operators — the steady-state shape of a sensor pipeline's hot path.
func BenchmarkLatticeThroughput(b *testing.B) {
	l := New(4)
	defer l.Stop()
	const numOps = 16
	qs := make([]*OpQueue, numOps)
	for i := range qs {
		qs[i] = l.NewOpQueue(ModeParallelMessages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SubmitDeadline(qs[i%numOps], KindMessage, timestamp.New(uint64(i)), NoDeadline, func() {})
	}
	l.Quiesce()
}

// BenchmarkLatticeContention measures the dispatcher under N concurrent
// producers × M operators, the §7.2 scaling scenario: every Submit and every
// completion contends on the scheduler's synchronization.
func BenchmarkLatticeContention(b *testing.B) {
	l := New(8)
	defer l.Stop()
	const numOps = 32
	qs := make([]*OpQueue, numOps)
	for i := range qs {
		qs[i] = l.NewOpQueue(ModeParallelMessages)
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(4) // 4×GOMAXPROCS producer goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			l.SubmitDeadline(qs[i%numOps], KindMessage, timestamp.New(i), NoDeadline, func() {})
		}
	})
	l.Quiesce()
}
