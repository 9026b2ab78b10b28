// Package state implements ERDOS' system-managed operator state (§5.3-§5.4
// of the paper).
//
// By assuming control over operator state decoupled from the computation,
// the runtime can hand independent views to proactive strategies, deadline
// exception handlers (DEH) and speculatively-executed implementation
// variants without requiring operators to synchronize, while guaranteeing:
//
//   - Transactional semantics: a callback executing timestamp t mutates a
//     private working view; the mutations become visible only when the view
//     is committed (normally upon release of the watermark Wt). An aborted
//     view is discarded without effect.
//
//   - Time-versioning: a committed version is retained per timestamp, so a
//     DEH for t can read the committed state of any t' < t while proactive
//     strategies continue for t” >= t in parallel.
//
// The default Versioned implementation snapshots full state per commit. The
// LogState implementation in logstate.go demonstrates the custom-state
// interface (commit as an operation log, CRDT-style) from §5.4.
package state

import (
	"sync"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// Store is the type-erased interface the worker runtime uses to manage an
// operator's state. Implementations must be safe for concurrent use.
type Store interface {
	// View returns a private mutable working view for computing timestamp
	// t, derived from the committed state at the greatest t' < t.
	View(t timestamp.Timestamp) any
	// Commit atomically publishes view as the committed state for t.
	// Commits may arrive out of order; Committed always answers from the
	// version ordering, not arrival order.
	Commit(t timestamp.Timestamp, view any)
	// Committed returns a read-only snapshot of the committed state at the
	// greatest timestamp t' <= t, and whether any such version exists.
	Committed(t timestamp.Timestamp) (any, bool)
	// Last returns the committed state with the greatest timestamp.
	Last() (any, timestamp.Timestamp, bool)
	// Discard abandons a working view without publishing it (Abort policy).
	Discard(t timestamp.Timestamp, view any)
	// GC drops committed versions strictly below t, keeping at least the
	// most recent one at or below t so Committed(t) still answers.
	GC(t timestamp.Timestamp)
	// Versions returns the number of retained committed versions.
	Versions() int
}

// version is one committed snapshot.
type version struct {
	ts    timestamp.Timestamp
	value any
}

// Versioned is the default Store: it keeps a full snapshot of the state per
// committed timestamp. Snapshots are produced by the clone function supplied
// at construction; for plain-old-data states CloneByValue suffices.
type Versioned struct {
	mu       sync.Mutex
	initial  any
	clone    func(any) any
	versions timestamp.Window[version]
}

// NewVersioned returns a Store whose initial committed state (conceptually
// at the minimum timestamp) is initial. clone must return an independent
// deep copy of its argument; it is invoked for every View and Committed.
func NewVersioned(initial any, clone func(any) any) *Versioned {
	if clone == nil {
		panic("state: nil clone function")
	}
	return &Versioned{initial: initial, clone: clone}
}

// Typed is a typed convenience constructor over NewVersioned.
func Typed[S any](initial S, clone func(S) S) *Versioned {
	return NewVersioned(initial, func(v any) any { return clone(v.(S)) })
}

// CloneByValue returns a clone function that copies by assignment. It is
// only correct for states without reference-typed fields (maps, slices,
// pointers) or for immutable reference targets.
func CloneByValue[S any]() func(S) S { return func(s S) S { return s } }

// View implements Store. The view is derived from the committed state at
// the greatest t' strictly below t, so parallel executions for different
// timestamps never observe each other's uncommitted effects.
func (v *Versioned) View(t timestamp.Timestamp) any {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.clone(v.lookupLocked(t, true))
}

// Commit implements Store.
func (v *Versioned) Commit(t timestamp.Timestamp, view any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Insert keeping ascending timestamp order; replace on equal timestamp
	// (a re-commit for the same t, e.g. a DEH amending a dirty view, wins).
	i := v.countLocked(t, false)
	if i > 0 && v.versions.At(i-1).ts.Equal(t) {
		v.versions.At(i - 1).value = view
		return
	}
	v.versions.Insert(i, version{ts: t, value: view})
}

// Committed implements Store.
func (v *Versioned) Committed(t timestamp.Timestamp) (any, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i := v.countLocked(t, false); i > 0 {
		return v.clone(v.versions.At(i - 1).value), true
	}
	return v.clone(v.initial), false
}

// Last implements Store.
func (v *Versioned) Last() (any, timestamp.Timestamp, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.versions.Len()
	if n == 0 {
		return v.clone(v.initial), timestamp.Bottom(), false
	}
	last := v.versions.At(n - 1)
	return v.clone(last.value), last.ts, true
}

// Discard implements Store. The default implementation has nothing to undo:
// views are private clones, so dropping the reference suffices.
func (v *Versioned) Discard(timestamp.Timestamp, any) {}

// GC implements Store: it pops every version before the newest one at or
// below t from the head of the window, in place.
func (v *Versioned) GC(t timestamp.Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := v.countLocked(t, false); n > 1 {
		v.versions.DropFront(n - 1)
	}
}

// Versions implements Store.
func (v *Versioned) Versions() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.versions.Len()
}

// ListVersions implements VersionLister: it returns the newest n retained
// versions strictly below t in ascending timestamp order. Values are
// independent clones, so callers (checkpoint encoding in particular) can
// read them while the live store keeps committing.
func (v *Versioned) ListVersions(t timestamp.Timestamp, n int) []TimedValue {
	v.mu.Lock()
	defer v.mu.Unlock()
	end := v.countLocked(t, true)
	start := max(end-n, 0)
	out := make([]TimedValue, 0, end-start)
	for i := start; i < end; i++ {
		ver := v.versions.At(i)
		out = append(out, TimedValue{TS: ver.ts, Value: v.clone(ver.value)})
	}
	return out
}

// countLocked returns how many versions lie strictly below t (strict) or at
// or below t (!strict).
func (v *Versioned) countLocked(t timestamp.Timestamp, strict bool) int {
	if strict {
		return v.versions.Search(func(ver *version) bool { return ver.ts.Less(t) })
	}
	return v.versions.Search(func(ver *version) bool { return ver.ts.LessEq(t) })
}

// lookupLocked returns the committed value at the greatest t' < t (strict)
// or t' <= t (if !strict); falls back to the initial state.
func (v *Versioned) lookupLocked(t timestamp.Timestamp, strict bool) any {
	if i := v.countLocked(t, strict); i > 0 {
		return v.versions.At(i - 1).value
	}
	return v.initial
}

// None is a Store for stateless operators: views are always nil and commits
// are recorded only as timestamps so Committed/Last still answer.
type None struct {
	mu   sync.Mutex
	last timestamp.Timestamp
	seen bool
}

// NewNone returns a stateless Store.
func NewNone() *None { return &None{} }

// View implements Store.
func (n *None) View(timestamp.Timestamp) any { return nil }

// Commit implements Store.
func (n *None) Commit(t timestamp.Timestamp, _ any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.seen || n.last.Less(t) {
		n.last, n.seen = t, true
	}
}

// Committed implements Store.
func (n *None) Committed(timestamp.Timestamp) (any, bool) { return nil, false }

// Last implements Store.
func (n *None) Last() (any, timestamp.Timestamp, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return nil, n.last, n.seen
}

// Discard implements Store.
func (n *None) Discard(timestamp.Timestamp, any) {}

// GC implements Store.
func (n *None) GC(timestamp.Timestamp) {}

// Versions implements Store.
func (n *None) Versions() int { return 0 }
