package lattice

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShortDeadlineOvertakesSlackRichBacklog is the priority-inversion
// regression guard for EDF dispatch: with the pool saturated and a backlog
// of slack-rich "perception" callbacks queued ahead of it, a short-deadline
// "control" callback must be dispatched first. Pre-EDF the run queues were
// FIFO-by-priority on logical time only, so the control callback would wait
// out the entire backlog.
func TestShortDeadlineOvertakesSlackRichBacklog(t *testing.T) {
	l := New(1)
	defer l.Stop()

	// Pin the single pool goroutine so every later submission piles up in
	// the shard run queue instead of dispatching immediately.
	gate := make(chan struct{})
	var blocked atomic.Bool
	blocker := l.NewOpQueue(ModeSequential)
	l.SubmitDeadline(blocker, KindMessage, ts(1), NoDeadline, func() {
		blocked.Store(true)
		<-gate
	})
	for !blocked.Load() {
		runtime.Gosched()
	}

	var mu sync.Mutex
	var order []string
	record := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}

	// Slack-rich perception backlog: early logical times, distant deadlines.
	// Deadlines are opaque virtual instants; only their order matters.
	const backlog = 16
	for i := 0; i < backlog; i++ {
		q := l.NewOpQueue(ModeSequential)
		l.SubmitDeadline(q, KindMessage, ts(uint64(i+1)), 1_000_000, record("perception"))
	}
	// A no-deadline callback must order after every deadline-bearing one.
	l.SubmitDeadline(l.NewOpQueue(ModeSequential), KindMessage, ts(1), NoDeadline, record("logging"))
	// The urgent control callback arrives last, at a *later* logical time —
	// exactly the shape FIFO/timestamp order would bury at the back.
	control := l.NewOpQueue(ModeSequential)
	l.SubmitDeadline(control, KindMessage, ts(backlog+10), 1_000, record("control"))

	close(gate)
	l.Quiesce()

	if len(order) != backlog+2 {
		t.Fatalf("ran %d callbacks, want %d", len(order), backlog+2)
	}
	if order[0] != "control" {
		t.Fatalf("short-deadline control callback dispatched at position %v, want first (order %v)", indexOf(order, "control"), order)
	}
	if order[len(order)-1] != "logging" {
		t.Fatalf("no-deadline callback dispatched at position %d, want last (order %v)", indexOf(order, "logging"), order)
	}
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// TestStealTakesMostUrgentVictim drives the lock-free victim scan directly:
// with work parked on two foreign shards, a thief must take the head with
// the earlier absolute deadline even when the other victim comes first in
// the steal order.
func TestStealTakesMostUrgentVictim(t *testing.T) {
	// A bare lattice with no pool goroutines: pushShard/steal are driven by
	// hand so the scan's choice is deterministic.
	l2 := &Lattice{shards: []*shard{{}, {}, {}}}
	for _, s := range l2.shards {
		s.headDl.Store(shardEmpty)
	}
	mk := func(dl int64, seq uint64) *Item {
		return &Item{dl: dl, seq: seq, idx: -1, runIdx: -1}
	}
	l2.pushShard(1, mk(5_000, 1))
	l2.pushShard(2, mk(1_000, 2))
	l2.pushShard(2, mk(9_000, 3))

	it := l2.steal([]int{1, 2})
	if it == nil || it.dl != 1_000 {
		t.Fatalf("steal took deadline %v, want the most urgent (1000)", it)
	}
	// Ties (and victims left with only later deadlines) fall back to steal
	// order: shard 1's 5000 head beats shard 2's 9000 head.
	it = l2.steal([]int{1, 2})
	if it == nil || it.dl != 5_000 {
		t.Fatalf("steal took deadline %v, want 5000", it)
	}
	it = l2.steal([]int{1, 2})
	if it == nil || it.dl != 9_000 {
		t.Fatalf("steal took deadline %v, want 9000", it)
	}
	if it = l2.steal([]int{1, 2}); it != nil {
		t.Fatalf("steal on dry shards returned %v, want nil", it)
	}
}
