package lattice

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func ts(l uint64, c ...uint64) timestamp.Timestamp { return timestamp.New(l, c...) }

func TestWatermarkCallbacksRunInTimestampOrder(t *testing.T) {
	l := New(4)
	defer l.Stop()
	q := l.NewOpQueue(ModeSequential)
	var mu sync.Mutex
	var order []uint64
	for i := 0; i < 50; i++ {
		i := uint64(i)
		l.SubmitDeadline(q, KindWatermark, ts(i), NoDeadline, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	l.Quiesce()
	if len(order) != 50 {
		t.Fatalf("ran %d callbacks, want 50", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("watermark callbacks out of order: %v", order)
		}
	}
}

func TestSequentialModeNeverOverlaps(t *testing.T) {
	l := New(8)
	defer l.Stop()
	q := l.NewOpQueue(ModeSequential)
	var running, maxRunning atomic.Int32
	for i := 0; i < 100; i++ {
		kind := KindMessage
		if i%3 == 0 {
			kind = KindWatermark
		}
		l.SubmitDeadline(q, kind, ts(uint64(i)), NoDeadline, func() {
			n := running.Add(1)
			for {
				old := maxRunning.Load()
				if n <= old || maxRunning.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		})
	}
	l.Quiesce()
	if maxRunning.Load() != 1 {
		t.Fatalf("sequential operator overlapped: max concurrency %d", maxRunning.Load())
	}
}

func TestParallelMessagesOverlap(t *testing.T) {
	l := New(8)
	defer l.Stop()
	q := l.NewOpQueue(ModeParallelMessages)
	var running, maxRunning atomic.Int32
	var wg sync.WaitGroup
	wg.Add(16)
	for i := 0; i < 16; i++ {
		l.SubmitDeadline(q, KindMessage, ts(uint64(i)), NoDeadline, func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				old := maxRunning.Load()
				if n <= old || maxRunning.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
		})
	}
	wg.Wait()
	l.Quiesce()
	if maxRunning.Load() < 2 {
		t.Fatalf("parallel-messages operator never overlapped (max %d)", maxRunning.Load())
	}
}

func TestWatermarkWaitsForEarlierMessages(t *testing.T) {
	l := New(8)
	defer l.Stop()
	q := l.NewOpQueue(ModeParallelMessages)
	var msgDone atomic.Bool
	var wmSawMsgDone atomic.Bool
	l.SubmitDeadline(q, KindMessage, ts(5), NoDeadline, func() {
		time.Sleep(5 * time.Millisecond)
		msgDone.Store(true)
	})
	l.SubmitDeadline(q, KindWatermark, ts(5), NoDeadline, func() {
		wmSawMsgDone.Store(msgDone.Load())
	})
	l.Quiesce()
	if !wmSawMsgDone.Load() {
		t.Fatal("watermark callback ran before an earlier-or-equal message callback completed")
	}
}

func TestLaterMessagesMayOvertakeWatermarkOfEarlierTime(t *testing.T) {
	// A message callback for t=10 must not be blocked behind a slow
	// watermark callback queue for t<=5 forever; it simply needs no
	// ordering guarantee. We only assert that everything completes.
	l := New(4)
	defer l.Stop()
	q := l.NewOpQueue(ModeParallelMessages)
	var count atomic.Int32
	l.SubmitDeadline(q, KindWatermark, ts(5), NoDeadline, func() {
		time.Sleep(time.Millisecond)
		count.Add(1)
	})
	l.SubmitDeadline(q, KindMessage, ts(10), NoDeadline, func() { count.Add(1) })
	l.Quiesce()
	if count.Load() != 2 {
		t.Fatalf("completed %d callbacks, want 2", count.Load())
	}
}

func TestCrossOperatorParallelism(t *testing.T) {
	l := New(8)
	defer l.Stop()
	var running, maxRunning atomic.Int32
	var wg sync.WaitGroup
	for op := 0; op < 8; op++ {
		q := l.NewOpQueue(ModeSequential)
		wg.Add(1)
		l.SubmitDeadline(q, KindWatermark, ts(0), NoDeadline, func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				old := maxRunning.Load()
				if n <= old || maxRunning.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(3 * time.Millisecond)
			running.Add(-1)
		})
	}
	wg.Wait()
	l.Quiesce()
	if maxRunning.Load() < 2 {
		t.Fatalf("operators did not run in parallel (max %d)", maxRunning.Load())
	}
}

func TestAccuracyCoordinatePriority(t *testing.T) {
	// Among ready message callbacks of the same logical time, the lattice
	// prefers higher ĉ (§5.3). Use a single worker held by a gate so the
	// items below — each on its own operator so all are dispatchable — sit
	// in the ready heap together before any runs.
	l := New(1)
	defer l.Stop()
	gate := l.NewOpQueue(ModeSequential)
	release := make(chan struct{})
	l.SubmitDeadline(gate, KindMessage, ts(0), NoDeadline, func() { <-release })
	var mu sync.Mutex
	var order []uint64
	for _, c := range []uint64{1, 3, 2} {
		c := c
		l.SubmitDeadline(l.NewOpQueue(ModeSequential), KindMessage, ts(7, c), NoDeadline, func() {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
		})
	}
	close(release)
	l.Quiesce()
	want := []uint64{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("accuracy priority order = %v, want %v", order, want)
		}
	}
}

func TestQuiesceOnEmptyLattice(t *testing.T) {
	l := New(2)
	defer l.Stop()
	done := make(chan struct{})
	go func() { l.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Quiesce on an empty lattice blocked")
	}
}

func TestStopDropsPendingAndReturns(t *testing.T) {
	l := New(1)
	q := l.NewOpQueue(ModeSequential)
	started := make(chan struct{})
	block := make(chan struct{})
	l.SubmitDeadline(q, KindMessage, ts(0), NoDeadline, func() { close(started); <-block })
	for i := 0; i < 10; i++ {
		l.SubmitDeadline(q, KindMessage, ts(uint64(i+1)), NoDeadline, func() {})
	}
	<-started
	done := make(chan struct{})
	go func() { l.Stop(); close(done) }()
	close(block)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return")
	}
}

func TestSubmitAfterStopIsNoop(t *testing.T) {
	l := New(1)
	l.Stop()
	q := l.NewOpQueue(ModeSequential)
	l.SubmitDeadline(q, KindMessage, ts(0), NoDeadline, func() { t.Error("callback ran after Stop") })
	time.Sleep(10 * time.Millisecond)
}

// Regression for the Stop/Quiesce deadlock: Stop used to subtract only the
// globally-ready items from pending, leaving callbacks still blocked in
// per-operator pending heaps counted forever, so a concurrent Quiesce never
// woke. Stop must drain the operator heaps and wake idle waiters.
func TestStopWakesConcurrentQuiesce(t *testing.T) {
	l := New(1)
	q := l.NewOpQueue(ModeSequential)
	started := make(chan struct{})
	block := make(chan struct{})
	l.SubmitDeadline(q, KindMessage, ts(0), NoDeadline, func() { close(started); <-block })
	// These stay in the op's pending heap: the running callback blocks
	// promotion in ModeSequential, so none of them reach a run queue.
	for i := 0; i < 10; i++ {
		l.SubmitDeadline(q, KindMessage, ts(uint64(i+1)), NoDeadline, func() {})
	}
	<-started
	quiesced := make(chan struct{})
	go func() { l.Quiesce(); close(quiesced) }()
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	close(block)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return")
	}
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce hung across Stop: dropped pending-heap items still counted")
	}
}

// Stress test for ModeParallelMessages under -race: many operators receive
// concurrent message submissions and monotone watermarks from independent
// producers. Whenever a watermark callback for t runs, every already-enqueued
// message callback with ts <= t must have completed and none may be running.
func TestParallelMessagesWatermarkBarrierStress(t *testing.T) {
	const (
		numOps  = 16
		maxL    = 40
		msgsPer = 120
	)
	l := New(8)
	defer l.Stop()

	type opState struct {
		q         *OpQueue
		submitted [maxL + 1]atomic.Int64 // messages enqueued at each logical time
		done      [maxL + 1]atomic.Int64 // message callbacks completed
		running   [maxL + 1]atomic.Int64 // message callbacks currently executing
		wmActive  atomic.Int32           // watermark callbacks in flight (must be <= 1)
		violation atomic.Pointer[string]
	}
	fail := func(s *opState, msg string) {
		s.violation.CompareAndSwap(nil, &msg)
	}
	ops := make([]*opState, numOps)
	for i := range ops {
		ops[i] = &opState{q: l.NewOpQueue(ModeParallelMessages)}
	}

	var wg sync.WaitGroup
	for i, s := range ops {
		s := s
		seed := int64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			wm := uint64(0) // high watermark submitted so far; only grows
			for n := 0; n < msgsPer; n++ {
				if wm < maxL {
					// Messages go strictly above the submitted watermark, so
					// every message with ts <= a watermark's timestamp was
					// enqueued before that watermark (single submitter).
					lt := wm + 1 + uint64(r.Intn(int(maxL-wm)))
					s.submitted[lt].Add(1)
					l.SubmitDeadline(s.q, KindMessage, ts(lt), NoDeadline, func() {
						s.running[lt].Add(1)
						s.done[lt].Add(1) // before running drops; barrier check reads running first
						s.running[lt].Add(-1)
					})
				}
				if r.Intn(4) == 0 && wm < maxL {
					wm += uint64(1 + r.Intn(3))
					if wm > maxL {
						wm = maxL
					}
					wmv := wm
					l.SubmitDeadline(s.q, KindWatermark, ts(wmv), NoDeadline, func() {
						if s.wmActive.Add(1) != 1 {
							fail(s, "watermark callbacks overlapped")
						}
						for t := uint64(0); t <= wmv; t++ {
							if s.running[t].Load() != 0 {
								fail(s, "message callback with ts <= watermark still running")
							}
							if s.submitted[t].Load() != s.done[t].Load() {
								fail(s, "enqueued message with ts <= watermark not completed")
							}
						}
						s.wmActive.Add(-1)
					})
				}
			}
		}()
	}
	wg.Wait()
	l.Quiesce()
	for i, s := range ops {
		if p := s.violation.Load(); p != nil {
			t.Fatalf("op %d: %s", i, *p)
		}
		for t2 := uint64(0); t2 <= maxL; t2++ {
			if s.submitted[t2].Load() != s.done[t2].Load() {
				t.Fatalf("op %d: %d messages at t=%d never ran", i,
					s.submitted[t2].Load()-s.done[t2].Load(), t2)
			}
		}
	}
}

// Property: under random submission of messages and watermarks across many
// operators, per-operator watermark order is always monotone and every
// callback runs exactly once.
func TestQuickRandomTrafficInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		l := New(1 + r.Intn(8))
		type opState struct {
			q      *OpQueue
			nextWM uint64 // watermarks are submitted monotonically, as real streams produce them
			mu     sync.Mutex
			wm     []uint64
		}
		ops := make([]*opState, 5)
		for i := range ops {
			mode := ModeSequential
			if r.Intn(2) == 0 {
				mode = ModeParallelMessages
			}
			ops[i] = &opState{q: l.NewOpQueue(mode)}
		}
		var ran atomic.Int32
		n := 200
		for i := 0; i < n; i++ {
			op := ops[r.Intn(len(ops))]
			tsv := uint64(r.Intn(20))
			if r.Intn(3) == 0 {
				op.nextWM += uint64(r.Intn(3))
				tsv = op.nextWM
				l.SubmitDeadline(op.q, KindWatermark, ts(tsv), NoDeadline, func() {
					op.mu.Lock()
					op.wm = append(op.wm, tsv)
					op.mu.Unlock()
					ran.Add(1)
				})
			} else {
				l.SubmitDeadline(op.q, KindMessage, ts(tsv), NoDeadline, func() { ran.Add(1) })
			}
		}
		l.Quiesce()
		if int(ran.Load()) != n {
			t.Fatalf("trial %d: ran %d, want %d", trial, ran.Load(), n)
		}
		for i, op := range ops {
			for j := 1; j < len(op.wm); j++ {
				if op.wm[j] < op.wm[j-1] {
					t.Fatalf("trial %d op %d: watermark order regressed: %v", trial, i, op.wm)
				}
			}
		}
		l.Stop()
	}
}
