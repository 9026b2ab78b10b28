// Package deadline implements ERDOS' deadline specification and enforcement
// machinery (§5.1, §5.2 and §6.3 of the paper).
//
// Components register relative deadlines that bound the wall-clock time
// elapsed between two fine-grained execution events. Events are described by
// boolean conditions over per-timestamp message statistics:
//
//   - the deadline start condition (DSC) is evaluated at the receipt (or,
//     for output-side conditions, generation) of every message and arms an
//     absolute deadline when it first returns true for a logical time;
//   - the deadline end condition (DEC) disarms it.
//
// If the DEC is not satisfied before the absolute deadline expires, the
// deadline exception handler runs (§5.4). Armed deadlines are kept in a
// priority queue ordered by absolute expiry (§6.3); a single timer per
// Monitor tracks the earliest expiry.
//
// Two general abstractions from §5.1 are provided on top of the raw
// machinery: TimestampTracker (bounding an operator's execution time for a
// timestamp) and FrequencyTracker (bounding the inter-arrival gap of
// watermarks on an input stream, simulating missing input on expiry).
package deadline

import (
	"fmt"
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// Stats is the (n, w) tuple passed to deadline conditions (§5.1): the number
// of messages received or sent for a logical time, and whether the watermark
// for that logical time was received or sent.
type Stats struct {
	Count     int
	Watermark bool
}

// Condition is a deadline start or end condition over per-timestamp Stats.
type Condition func(Stats) bool

// FirstMessage returns a condition satisfied by the first message (data or
// watermark) for a timestamp — the default DSC of a timestamp deadline.
func FirstMessage() Condition {
	return func(s Stats) bool { return s.Count > 0 || s.Watermark }
}

// WatermarkOnly returns a condition satisfied once the watermark for the
// timestamp has been observed — the default DEC of a timestamp deadline.
func WatermarkOnly() Condition {
	return func(s Stats) bool { return s.Watermark }
}

// MessageCount returns a condition satisfied once at least k messages have
// been observed for the timestamp (e.g. Lst. 1's `sent_msg_cnt > 0` DEC with
// k = 1).
func MessageCount(k int) Condition {
	return func(s Stats) bool { return s.Count >= k }
}

// Policy selects how a deadline exception handler is orchestrated relative
// to the proactive strategy it interrupts (§5.4).
type Policy uint8

const (
	// Abort terminates the proactive strategy's effects for the timestamp:
	// its output is suppressed and its state mutations are discarded; the
	// handler amends the dirty state and releases output.
	Abort Policy = iota
	// Continue runs the handler in parallel with the proactive strategy:
	// the handler quickly releases output while the strategy keeps running
	// and commits its higher-accuracy state for future timestamps.
	Continue
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Abort:
		return "abort"
	case Continue:
		return "continue"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Miss describes one missed deadline, passed to exception handlers.
type Miss struct {
	// Timestamp is the logical time whose deadline expired.
	Timestamp timestamp.Timestamp
	// Relative is the relative deadline Di that was armed.
	Relative time.Duration
	// ArmedAt is the wall-clock instant the DSC was satisfied.
	ArmedAt time.Time
	// ExpiredAt is the wall-clock instant the deadline expired.
	ExpiredAt time.Time
	// Policy is the orchestration policy of the missed deadline.
	Policy Policy
}

// Source supplies the relative deadline value Di for a logical time. It
// abstracts §5.2's static and environment-dependent (pDP-driven) deadlines.
type Source interface {
	// For returns the relative deadline for timestamp t.
	For(t timestamp.Timestamp) time.Duration
}

// Static is a Source with a fixed relative deadline.
type Static time.Duration

// For implements Source.
func (s Static) For(timestamp.Timestamp) time.Duration { return time.Duration(s) }

// Dynamic is a Source fed by a deadline stream from the deadline policy pDP
// (§5.2). pDP sends the relative deadline Di in a message Mt followed by a
// watermark Wt' (t' >= t); Di applies to logical times from t onward until a
// later update. Lookups for a time with no update at or below it fall back
// to the earliest retained update, and to Default before any update
// arrives. GCBelow bounds the retained updates the way Versioned.GC bounds
// state versions.
type Dynamic struct {
	// Default applies before the first update from pDP arrives.
	Default time.Duration

	mu      sync.RWMutex
	updates timestamp.Window[dynamicUpdate]
}

type dynamicUpdate struct {
	from timestamp.Timestamp
	d    time.Duration
}

// NewDynamic returns a Dynamic source with the given default.
func NewDynamic(def time.Duration) *Dynamic { return &Dynamic{Default: def} }

// Update records the relative deadline d for logical times >= t. Updates
// may arrive slightly out of order (pDP runs as an operator subgraph); the
// source keeps them sorted.
func (dv *Dynamic) Update(t timestamp.Timestamp, d time.Duration) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	i := dv.atOrBelowLocked(t)
	if i > 0 && dv.updates.At(i-1).from.Equal(t) {
		dv.updates.At(i - 1).d = d
		return
	}
	dv.updates.Insert(i, dynamicUpdate{from: t, d: d})
}

// atOrBelowLocked returns how many retained updates start at or below t.
func (dv *Dynamic) atOrBelowLocked(t timestamp.Timestamp) int {
	return dv.updates.Search(func(u *dynamicUpdate) bool { return u.from.LessEq(t) })
}

// For implements Source: the update with the greatest time <= t wins; with
// none at or below t, the earliest retained update (pDP's first decision)
// or the default applies.
func (dv *Dynamic) For(t timestamp.Timestamp) time.Duration {
	dv.mu.RLock()
	defer dv.mu.RUnlock()
	if dv.updates.Len() == 0 {
		return dv.Default
	}
	if i := dv.atOrBelowLocked(t); i > 0 {
		return dv.updates.At(i - 1).d
	}
	return dv.updates.At(0).d
}

// GCBelow drops the updates that no lookup at or above logical time l can
// select: every update before the newest one at or below l. For(t) answers
// as before for every t >= l.
func (dv *Dynamic) GCBelow(l uint64) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if n := dv.atOrBelowLocked(timestamp.New(l)); n > 1 {
		dv.updates.DropFront(n - 1)
	}
}

// Len returns the number of retained updates.
func (dv *Dynamic) Len() int {
	dv.mu.RLock()
	defer dv.mu.RUnlock()
	return dv.updates.Len()
}
