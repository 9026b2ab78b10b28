package deadline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func ts(l uint64) timestamp.Timestamp { return timestamp.New(l) }

func TestConditions(t *testing.T) {
	if FirstMessage()(Stats{}) {
		t.Fatal("FirstMessage satisfied with no traffic")
	}
	if !FirstMessage()(Stats{Count: 1}) || !FirstMessage()(Stats{Watermark: true}) {
		t.Fatal("FirstMessage not satisfied by first message")
	}
	if WatermarkOnly()(Stats{Count: 5}) {
		t.Fatal("WatermarkOnly satisfied by data only")
	}
	if !WatermarkOnly()(Stats{Watermark: true}) {
		t.Fatal("WatermarkOnly not satisfied by watermark")
	}
	if MessageCount(2)(Stats{Count: 1}) || !MessageCount(2)(Stats{Count: 2}) {
		t.Fatal("MessageCount(2) broken")
	}
}

func TestStaticSource(t *testing.T) {
	s := Static(100 * time.Millisecond)
	if s.For(ts(0)) != 100*time.Millisecond || s.For(ts(99)) != 100*time.Millisecond {
		t.Fatal("Static must be constant")
	}
}

func TestDynamicSource(t *testing.T) {
	d := NewDynamic(50 * time.Millisecond)
	if d.For(ts(3)) != 50*time.Millisecond {
		t.Fatal("default must apply before updates")
	}
	d.Update(ts(10), 200*time.Millisecond)
	d.Update(ts(20), 100*time.Millisecond)
	cases := []struct {
		l    uint64
		want time.Duration
	}{
		{5, 200 * time.Millisecond}, // before first update: earliest decision applies
		{10, 200 * time.Millisecond},
		{15, 200 * time.Millisecond},
		{20, 100 * time.Millisecond},
		{99, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := d.For(ts(c.l)); got != c.want {
			t.Errorf("For(%d) = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestDynamicOutOfOrderUpdates(t *testing.T) {
	d := NewDynamic(time.Millisecond)
	d.Update(ts(20), 20*time.Millisecond)
	d.Update(ts(10), 10*time.Millisecond)
	d.Update(ts(10), 11*time.Millisecond) // same-time update replaces
	if got := d.For(ts(15)); got != 11*time.Millisecond {
		t.Fatalf("For(15) = %v, want 11ms", got)
	}
	if got := d.For(ts(25)); got != 20*time.Millisecond {
		t.Fatalf("For(25) = %v, want 20ms", got)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDynamicGCBoundsUpdates(t *testing.T) {
	// One pDP decision per frame for 10⁵ frames, trimmed at a cut trailing
	// the newest frame by 64 as the worker's history GC does: the source
	// stays the same size, and every lookup at or above the cut answers as
	// an untrimmed source would.
	const history = 64
	d := NewDynamic(time.Millisecond)
	ref := NewDynamic(time.Millisecond)
	value := func(l uint64) time.Duration { return time.Duration(l%7+1) * time.Millisecond }
	for l := uint64(1); l <= 100_000; l++ {
		if l%3 == 0 { // sparse: not every frame gets a decision
			continue
		}
		d.Update(ts(l), value(l))
		if l >= 99_000 {
			ref.Update(ts(l), value(l))
		}
		if l > history {
			d.GCBelow(l - history)
		}
		if n := d.Len(); n > history+1 {
			t.Fatalf("after %d updates Len = %d, want <= %d", l, n, history+1)
		}
	}
	cut := uint64(100_000 - history)
	for l := cut; l <= 100_010; l++ {
		if got, want := d.For(ts(l)), ref.For(ts(l)); got != want {
			t.Fatalf("For(%d) = %v after GC, want %v", l, got, want)
		}
	}
	// A trim below every update, or of a single update, keeps the fallback.
	one := NewDynamic(time.Millisecond)
	one.Update(ts(50), 9*time.Millisecond)
	one.GCBelow(10)
	one.GCBelow(100)
	if one.Len() != 1 || one.For(ts(200)) != 9*time.Millisecond || one.For(ts(1)) != 9*time.Millisecond {
		t.Fatalf("single update: Len = %d, For(200) = %v", one.Len(), one.For(ts(200)))
	}
}

func TestManualClockAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	var fired []int
	c.AfterFunc(10*time.Millisecond, func() { fired = append(fired, 1) })
	c.AfterFunc(5*time.Millisecond, func() { fired = append(fired, 2) })
	h := c.AfterFunc(7*time.Millisecond, func() { fired = append(fired, 3) })
	if !h.Stop() {
		t.Fatal("Stop on pending timer must return true")
	}
	if h.Stop() {
		t.Fatal("second Stop must return false")
	}
	c.Advance(6 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v after 6ms", fired)
	}
	c.Advance(10 * time.Millisecond)
	if len(fired) != 2 || fired[1] != 1 {
		t.Fatalf("fired = %v after 16ms", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestMonitorFiresOnExpiry(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	m.Arm(10*time.Millisecond, func(time.Time) { fired.Add(1) })
	c.Advance(9 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("fired early")
	}
	c.Advance(2 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatal("did not fire at expiry")
	}
	f, s := m.Counters()
	if f != 1 || s != 0 {
		t.Fatalf("Counters = (%d, %d)", f, s)
	}
}

func TestMonitorSatisfyCancels(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	a, _ := m.Arm(10*time.Millisecond, func(time.Time) { fired.Add(1) })
	if !a.Satisfy() {
		t.Fatal("Satisfy must report true for an armed deadline")
	}
	if a.Satisfy() {
		t.Fatal("second Satisfy must report false")
	}
	c.Advance(20 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("satisfied deadline fired")
	}
	f, s := m.Counters()
	if f != 0 || s != 1 {
		t.Fatalf("Counters = (%d, %d)", f, s)
	}
}

func TestMonitorOrdering(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var mu sync.Mutex
	var order []int
	add := func(i int, d time.Duration) {
		m.Arm(d, func(time.Time) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	add(3, 30*time.Millisecond)
	add(1, 10*time.Millisecond)
	add(2, 20*time.Millisecond)
	c.Advance(40 * time.Millisecond)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
}

func TestMonitorEarliestRetarget(t *testing.T) {
	// Arming a deadline earlier than the current head must re-target the
	// timer so it still fires on time.
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	m.Arm(50*time.Millisecond, func(time.Time) { fired.Add(1) })
	m.Arm(5*time.Millisecond, func(time.Time) { fired.Add(1) })
	c.Advance(6 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("early deadline did not fire: %d", fired.Load())
	}
}

func TestMonitorStopDisarmsAll(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	var fired atomic.Int32
	for i := 0; i < 5; i++ {
		m.Arm(time.Millisecond, func(time.Time) { fired.Add(1) })
	}
	m.Stop()
	c.Advance(time.Second)
	if fired.Load() != 0 {
		t.Fatalf("%d deadlines fired after Stop", fired.Load())
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop", m.Pending())
	}
}

func TestMonitorRealClockSmoke(t *testing.T) {
	m := NewMonitor(Real{})
	defer m.Stop()
	ch := make(chan time.Time, 1)
	m.Arm(2*time.Millisecond, func(at time.Time) { ch <- at })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("real-clock deadline never fired")
	}
}

// --- TimestampTracker ---

func TestTimestampTrackerDefaultLifecycle(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var misses []Miss
	var mu sync.Mutex
	tr := NewTimestampTracker(m, Static(10*time.Millisecond), Abort, func(ms Miss) {
		mu.Lock()
		misses = append(misses, ms)
		mu.Unlock()
	})
	// First message arms (default DSC).
	tr.ObserveReceive(ts(1), false)
	if m.Pending() != 1 {
		t.Fatalf("Pending = %d after DSC", m.Pending())
	}
	// More messages for the same time do not re-arm.
	tr.ObserveReceive(ts(1), false)
	tr.ObserveReceive(ts(1), true)
	if m.Pending() != 1 {
		t.Fatalf("Pending = %d after duplicate receipts", m.Pending())
	}
	// Sending the watermark satisfies (default DEC).
	tr.ObserveSend(ts(1), true)
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after DEC", m.Pending())
	}
	c.Advance(time.Second)
	if len(misses) != 0 {
		t.Fatalf("misses = %v, want none", misses)
	}
}

func TestTimestampTrackerMiss(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var got Miss
	var fired atomic.Int32
	tr := NewTimestampTracker(m, Static(10*time.Millisecond), Continue, func(ms Miss) {
		got = ms
		fired.Add(1)
	})
	tr.ObserveReceive(ts(7), false)
	c.Advance(11 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatal("deadline miss did not fire")
	}
	if got.Timestamp.L != 7 || got.Relative != 10*time.Millisecond || got.Policy != Continue {
		t.Fatalf("Miss = %+v", got)
	}
	if got.ExpiredAt.Sub(got.ArmedAt) != 10*time.Millisecond {
		t.Fatalf("ArmedAt/ExpiredAt inconsistent: %+v", got)
	}
	// Late completion after a miss must be a no-op.
	tr.ObserveSend(ts(7), true)
}

func TestTimestampTrackerWatermarkCoversEarlierTimes(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	tr := NewTimestampTracker(m, Static(time.Second), Abort, func(Miss) { fired.Add(1) })
	tr.ObserveReceive(ts(1), false)
	tr.ObserveReceive(ts(2), false)
	tr.ObserveReceive(ts(3), false)
	if m.Pending() != 3 {
		t.Fatalf("Pending = %d", m.Pending())
	}
	// A watermark sent for t=3 completes times 1..3 (default DEC accepts
	// the first watermark with t' >= t).
	tr.ObserveSend(ts(3), true)
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after covering watermark", m.Pending())
	}
	c.Advance(2 * time.Second)
	if fired.Load() != 0 {
		t.Fatal("covered deadlines fired")
	}
}

func TestTimestampTrackerCustomConditions(t *testing.T) {
	// Lst. 1's Planner: DEC satisfied as soon as the first message for t is
	// sent (releasing a coarse plan), not only at the watermark.
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	tr := NewTimestampTracker(m, Static(10*time.Millisecond), Abort, func(Miss) { fired.Add(1) })
	tr.End = MessageCount(1)
	tr.ObserveReceive(ts(1), false)
	tr.ObserveSend(ts(1), false) // first data message satisfies custom DEC
	c.Advance(time.Second)
	if fired.Load() != 0 {
		t.Fatal("custom DEC did not satisfy the deadline")
	}

	// Custom DSC: arm only once 2 messages arrived.
	tr2 := NewTimestampTracker(m, Static(10*time.Millisecond), Abort, nil)
	tr2.Start = MessageCount(2)
	tr2.ObserveReceive(ts(5), false)
	if m.Pending() != 0 {
		t.Fatal("armed before custom DSC satisfied")
	}
	tr2.ObserveReceive(ts(5), false)
	if m.Pending() != 1 {
		t.Fatal("custom DSC did not arm")
	}
}

func TestTimestampTrackerDynamicValue(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var misses []Miss
	var mu sync.Mutex
	dyn := NewDynamic(100 * time.Millisecond)
	dyn.Update(ts(10), 5*time.Millisecond)
	tr := NewTimestampTracker(m, dyn, Abort, func(ms Miss) {
		mu.Lock()
		misses = append(misses, ms)
		mu.Unlock()
	})
	tr.ObserveReceive(ts(10), false)
	c.Advance(6 * time.Millisecond)
	mu.Lock()
	n := len(misses)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("dynamic 5ms deadline did not fire: %d misses", n)
	}
}

func TestTimestampTrackerGC(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	tr := NewTimestampTracker(m, Static(time.Millisecond), Abort, nil)
	for l := uint64(0); l < 10; l++ {
		tr.ObserveReceive(ts(l), false)
		tr.ObserveSend(ts(l), true)
	}
	if tr.Tracked() != 10 {
		t.Fatalf("Tracked = %d", tr.Tracked())
	}
	tr.GCBelow(8)
	if tr.Tracked() != 2 {
		t.Fatalf("Tracked after GC = %d", tr.Tracked())
	}
}

func TestTimestampTrackerArmedAfterCoveringWatermark(t *testing.T) {
	// A watermark sent for t=10 covers the times tracked so far. An entry
	// first seen afterwards, below 10, starts with no sent watermark: its
	// deadline arms, is satisfied only by a later watermark at or above it
	// or its own DEC, and otherwise misses.
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var mu sync.Mutex
	var missed []uint64
	tr := NewTimestampTracker(m, Static(10*time.Millisecond), Abort, func(ms Miss) {
		mu.Lock()
		missed = append(missed, ms.Timestamp.L)
		mu.Unlock()
	})
	tr.ObserveReceive(ts(9), false)
	tr.ObserveSend(ts(10), true)
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after covering watermark", m.Pending())
	}
	tr.ObserveReceive(ts(5), false)
	tr.ObserveReceive(ts(6), false)
	tr.ObserveReceive(ts(12), false)
	if m.Pending() != 3 {
		t.Fatalf("Pending = %d, want 5, 6 and 12 armed", m.Pending())
	}
	// A data send for 6 does not satisfy the default DEC; a watermark for
	// 5 satisfies 5 only; a repeated watermark for 10 re-covers 6.
	tr.ObserveSend(ts(6), false)
	tr.ObserveSend(ts(5), true)
	if m.Pending() != 2 {
		t.Fatalf("Pending = %d after watermark for 5, want 2", m.Pending())
	}
	tr.ObserveSend(ts(10), true)
	if m.Pending() != 1 {
		t.Fatalf("Pending = %d after repeated watermark for 10, want 1", m.Pending())
	}
	c.Advance(11 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(missed) != 1 || missed[0] != 12 {
		t.Fatalf("missed = %v, want [12]", missed)
	}
}

func TestTimestampTrackerStaysBounded(t *testing.T) {
	// 10⁴ timestamps through the worker's receive/send/GC cycle, with a
	// second, custom-DEC tracker whose deadlines outlive the cut now and
	// then: both stay bounded by the history depth plus what is armed.
	const history = 64
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	def := NewTimestampTracker(m, Static(time.Second), Abort, nil)
	slow := NewTimestampTracker(m, Static(200*time.Millisecond), Continue, nil)
	slow.End = MessageCount(1)
	for l := uint64(1); l <= 10_000; l++ {
		for _, tr := range []*TimestampTracker{def, slow} {
			tr.ObserveReceive(ts(l), false)
			tr.ObserveReceive(ts(l), true)
			if l%5 != 0 { // every fifth time never meets the custom DEC
				tr.ObserveSend(ts(l), false)
			}
			tr.ObserveSend(ts(l), true)
			if l > history {
				tr.GCBelow(l - history)
			}
		}
		c.Advance(time.Millisecond)
		if n := def.Tracked(); n > history+1 {
			t.Fatalf("default tracker holds %d entries at t=%d", n, l)
		}
		if n := slow.Tracked(); n > history+200 {
			t.Fatalf("custom-DEC tracker holds %d entries at t=%d", n, l)
		}
	}
}

// --- FrequencyTracker ---

func TestFrequencyTrackerGapFires(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var gaps []timestamp.Timestamp
	var mu sync.Mutex
	fr := NewFrequencyTracker(m, Static(30*time.Millisecond), func(last timestamp.Timestamp, _ Miss) {
		mu.Lock()
		gaps = append(gaps, last)
		mu.Unlock()
	})
	fr.ObserveWatermark(ts(1))
	c.Advance(29 * time.Millisecond)
	mu.Lock()
	n := len(gaps)
	mu.Unlock()
	if n != 0 {
		t.Fatal("gap fired early")
	}
	c.Advance(2 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(gaps) != 1 || gaps[0].L != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestFrequencyTrackerTimelyWatermarkSatisfies(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	fr := NewFrequencyTracker(m, Static(30*time.Millisecond), func(timestamp.Timestamp, Miss) { fired.Add(1) })
	fr.ObserveWatermark(ts(1))
	c.Advance(20 * time.Millisecond)
	fr.ObserveWatermark(ts(2)) // in time: re-arms for the next gap
	c.Advance(20 * time.Millisecond)
	fr.ObserveWatermark(ts(3))
	fr.Cancel()
	c.Advance(time.Second)
	if fired.Load() != 0 {
		t.Fatalf("timely watermarks still missed %d gaps", fired.Load())
	}
}

func TestFrequencyTrackerReArmsAfterInsertedWatermark(t *testing.T) {
	// After a gap fires, the runtime inserts a watermark, which flows back
	// into ObserveWatermark and re-arms the tracker — so a silent stream
	// produces one gap per period.
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var mu sync.Mutex
	count := 0
	var fr *FrequencyTracker
	fr = NewFrequencyTracker(m, Static(10*time.Millisecond), func(last timestamp.Timestamp, _ Miss) {
		mu.Lock()
		count++
		mu.Unlock()
		fr.ObserveWatermark(last.Succ()) // runtime inserts W(t+1)
	})
	fr.ObserveWatermark(ts(0))
	c.Advance(35 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 3 {
		t.Fatalf("silent stream produced %d gaps in 35ms with a 10ms period, want 3", count)
	}
}

func TestFrequencyTrackerTopStopsTracking(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	m := NewMonitor(c)
	defer m.Stop()
	var fired atomic.Int32
	fr := NewFrequencyTracker(m, Static(10*time.Millisecond), func(timestamp.Timestamp, Miss) { fired.Add(1) })
	fr.ObserveWatermark(ts(1))
	fr.ObserveWatermark(timestamp.Top())
	c.Advance(time.Second)
	if fired.Load() != 0 {
		t.Fatal("gap fired after the stream closed")
	}
}
