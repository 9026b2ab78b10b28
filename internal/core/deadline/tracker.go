package deadline

import (
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TimestampTracker enforces §5.1's timestamp deadlines: it bounds the
// wall-clock time between a deadline start condition evaluated over the
// messages an operator *receives* for a logical time and a deadline end
// condition evaluated over the messages it *sends*.
//
// The defaults match the paper: DSC = receipt of the first message for t;
// DEC = generation of the first watermark for t' >= t.
type TimestampTracker struct {
	// Start is the DSC; nil means FirstMessage().
	Start Condition
	// End is the DEC; nil means WatermarkOnly().
	End Condition
	// Value supplies the relative deadline Di per timestamp.
	Value Source
	// Policy is carried into Miss for the handler orchestration layer.
	Policy Policy
	// OnMiss runs when a deadline expires before its DEC is satisfied.
	// It runs on the monitor's timer goroutine and must be fast.
	OnMiss func(Miss)

	mon *Monitor

	mu sync.Mutex
	// entries holds one record per tracked logical time, ascending. Every
	// entry before covered has seen a sent watermark for a time at or
	// above its own, so a sent watermark visits only the entries it newly
	// covers.
	entries timestamp.Window[*ttEntry]
	covered int
}

type ttState uint8

const (
	ttIdle ttState = iota
	ttArmed
	ttDone
)

type ttEntry struct {
	ts      timestamp.Timestamp
	recv    Stats
	sent    Stats
	state   ttState
	armed   *Armed
	armedAt time.Time
	rel     time.Duration
}

// NewTimestampTracker returns a tracker registered on mon. Value must be
// non-nil.
func NewTimestampTracker(mon *Monitor, value Source, policy Policy, onMiss func(Miss)) *TimestampTracker {
	if value == nil {
		panic("deadline: nil value source")
	}
	return &TimestampTracker{
		Value:  value,
		Policy: policy,
		OnMiss: onMiss,
		mon:    mon,
	}
}

func (tr *TimestampTracker) start() Condition {
	if tr.Start != nil {
		return tr.Start
	}
	return FirstMessage()
}

func (tr *TimestampTracker) end() Condition {
	if tr.End != nil {
		return tr.End
	}
	return WatermarkOnly()
}

// find returns the index of logical time l in the window and its entry, or
// the index l would be inserted at and nil.
func (tr *TimestampTracker) find(l uint64) (int, *ttEntry) {
	i := tr.entries.Search(func(e **ttEntry) bool { return (*e).ts.L < l })
	if i < tr.entries.Len() && (*tr.entries.At(i)).ts.L == l {
		return i, *tr.entries.At(i)
	}
	return i, nil
}

// entry returns the entry for logical time l and its index, creating it
// with timestamp ts if needed. An entry created inside the covered prefix
// has seen no watermark yet, so the prefix shrinks to end before it.
func (tr *TimestampTracker) entry(l uint64, ts timestamp.Timestamp) (*ttEntry, int) {
	i, e := tr.find(l)
	if e != nil {
		return e, i
	}
	e = &ttEntry{ts: ts}
	tr.entries.Insert(i, e)
	if i < tr.covered {
		tr.covered = i
	}
	return e, i
}

// ObserveReceive records the receipt of a message (isWatermark selects the
// kind) for timestamp t and arms the deadline if the DSC becomes satisfied.
func (tr *TimestampTracker) ObserveReceive(t timestamp.Timestamp, isWatermark bool) {
	tr.mu.Lock()
	e, _ := tr.entry(t.L, t)
	if isWatermark {
		e.recv.Watermark = true
	} else {
		e.recv.Count++
	}
	if e.state != ttIdle || !tr.start()(e.recv) {
		tr.mu.Unlock()
		return
	}
	e.state = ttArmed
	e.rel = tr.Value.For(t)
	ets := e.ts
	rel := e.rel
	policy := tr.Policy
	armed, _ := tr.mon.Arm(rel, func(expiredAt time.Time) {
		tr.expire(ets, rel, policy, expiredAt)
	})
	e.armed = armed
	e.armedAt = armed.Expires().Add(-rel)
	tr.mu.Unlock()
}

// ObserveSend records the generation of a message for timestamp t and
// satisfies armed deadlines whose DEC becomes true. A generated watermark
// additionally completes every earlier armed logical time (the default DEC
// accepts the first watermark with t' >= t); it visits only the earlier
// times no sent watermark has covered yet.
func (tr *TimestampTracker) ObserveSend(t timestamp.Timestamp, isWatermark bool) {
	tr.mu.Lock()
	e, at := tr.entry(t.L, t)
	if isWatermark {
		e.sent.Watermark = true
	} else {
		e.sent.Count++
	}
	end := tr.end()
	var satisfy []*Armed
	if e.state == ttArmed && end(e.sent) {
		e.state = ttDone
		satisfy = append(satisfy, e.armed)
	}
	if isWatermark && tr.covered <= at {
		for i := tr.covered; i < at; i++ {
			o := *tr.entries.At(i)
			o.sent.Watermark = true
			if o.state == ttArmed && end(o.sent) {
				o.state = ttDone
				satisfy = append(satisfy, o.armed)
			}
		}
		tr.covered = at + 1
	}
	tr.mu.Unlock()
	for _, a := range satisfy {
		a.Satisfy()
	}
}

// expire marks the entry missed and invokes the handler.
func (tr *TimestampTracker) expire(t timestamp.Timestamp, rel time.Duration, policy Policy, expiredAt time.Time) {
	tr.mu.Lock()
	_, e := tr.find(t.L)
	if e == nil || e.state != ttArmed {
		tr.mu.Unlock()
		return
	}
	e.state = ttDone
	armedAt := e.armedAt
	tr.mu.Unlock()
	if tr.OnMiss != nil {
		tr.OnMiss(Miss{
			Timestamp: t,
			Relative:  rel,
			ArmedAt:   armedAt,
			ExpiredAt: expiredAt,
			Policy:    policy,
		})
	}
}

// GCBelow pops tracking entries for logical times strictly below l from
// the head of the window. An entry whose deadline is still armed stops the
// pop, and the entries behind it wait for the next call.
func (tr *TimestampTracker) GCBelow(l uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for n < tr.entries.Len() {
		if e := *tr.entries.At(n); e.ts.L >= l || e.state == ttArmed {
			break
		}
		n++
	}
	tr.entries.DropFront(n)
	tr.covered = max(tr.covered-n, 0)
}

// Tracked returns the number of live tracking entries.
func (tr *TimestampTracker) Tracked() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.entries.Len()
}

// FrequencyTracker enforces §5.1's frequency deadlines on one input stream:
// the maximum wall-clock gap between the receipt of the watermark for t and
// the receipt of the next watermark (t' > t). When the gap expires, OnGap
// runs; the runtime layer responds by inserting a watermark with a low
// accuracy coordinate on the stream, simulating the arrival of the missing
// input so the operator can eagerly execute with partial input (§5.3).
type FrequencyTracker struct {
	// Value supplies the maximum gap per timestamp.
	Value Source
	// OnGap runs when no watermark follows `last` within the gap. It runs
	// on the monitor's timer goroutine and must be fast.
	OnGap func(last timestamp.Timestamp, m Miss)

	mon *Monitor

	mu       sync.Mutex
	pending  *Armed
	last     timestamp.Timestamp
	haveLast bool
}

// NewFrequencyTracker returns a tracker registered on mon.
func NewFrequencyTracker(mon *Monitor, value Source, onGap func(timestamp.Timestamp, Miss)) *FrequencyTracker {
	if value == nil {
		panic("deadline: nil value source")
	}
	return &FrequencyTracker{Value: value, OnGap: onGap, mon: mon}
}

// ObserveWatermark records the receipt of the watermark for t: it satisfies
// the pending gap deadline (the DEC) and arms a new one starting at t (the
// DSC). Watermarks inserted by the runtime in response to OnGap flow back
// through this method, which naturally re-arms the tracker.
func (fr *FrequencyTracker) ObserveWatermark(t timestamp.Timestamp) {
	fr.mu.Lock()
	if fr.pending != nil {
		fr.pending.Satisfy()
		fr.pending = nil
	}
	if t.IsTop() {
		fr.haveLast = false
		fr.mu.Unlock()
		return
	}
	fr.last, fr.haveLast = t, true
	rel := fr.Value.For(t)
	armed, _ := fr.mon.Arm(rel, func(expiredAt time.Time) {
		fr.expire(t, rel, expiredAt)
	})
	fr.pending = armed
	fr.mu.Unlock()
}

// Cancel disarms any pending gap deadline (stream closing).
func (fr *FrequencyTracker) Cancel() {
	fr.mu.Lock()
	if fr.pending != nil {
		fr.pending.Satisfy()
		fr.pending = nil
	}
	fr.mu.Unlock()
}

func (fr *FrequencyTracker) expire(t timestamp.Timestamp, rel time.Duration, expiredAt time.Time) {
	fr.mu.Lock()
	if fr.pending == nil || !fr.haveLast || !fr.last.Equal(t) {
		fr.mu.Unlock()
		return
	}
	fr.pending = nil
	fr.mu.Unlock()
	if fr.OnGap != nil {
		fr.OnGap(t, Miss{
			Timestamp: t,
			Relative:  rel,
			ArmedAt:   expiredAt.Add(-rel),
			ExpiredAt: expiredAt,
		})
	}
}
