package lattice

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestLatticeTeardownNoGoroutineDrift builds a lattice, submits and
// executes a batch of callbacks on it, and stops it, five times. The
// goroutine count after each Stop must not climb on every cycle: one noisy
// step is normal, growth after every identical cycle is a Stop that
// strands worker goroutines.
func TestLatticeTeardownNoGoroutineDrift(t *testing.T) {
	const cycles, callbacks = 5, 256
	counts := make([]int, 0, cycles)
	for cycle := 0; cycle < cycles; cycle++ {
		l := New(4)
		qs := []*OpQueue{l.NewOpQueue(ModeSequential), l.NewOpQueue(ModeParallelMessages)}
		var ran atomic.Int64
		for i := 0; i < callbacks; i++ {
			l.SubmitDeadline(qs[i%len(qs)], KindMessage, ts(uint64(i+1)), NoDeadline, func() { ran.Add(1) })
		}
		l.Quiesce()
		l.Stop()
		if got := ran.Load(); got != callbacks {
			t.Fatalf("cycle %d: %d of %d callbacks ran", cycle, got, callbacks)
		}
		counts = append(counts, runtime.NumGoroutine())
	}
	grew := true
	for i := 1; i < len(counts); i++ {
		grew = grew && counts[i] > counts[i-1]
	}
	if grew {
		t.Fatalf("goroutines after each Stop = %v: grew on every cycle", counts)
	}
}
