package worker

import (
	"sync"
	"unsafe"

	"github.com/erdos-go/erdos/internal/core/comm"
)

// Delivered-payload ownership. The transport's receive path decodes a raw
// frame's []byte payload into a buffer from comm's payload pool and marks
// the message Owned; Inject takes that buffer over and leases it. A lease
// counts the references to the buffer: the inject call itself while the
// synchronous subscribers run, each queued data callback until it returns
// or is dropped, and each Context.Retain until its release. The last
// reference returns the buffer to the pool — unless the buffer, or any
// subslice of it, was sent onward: a pinned buffer now belongs to whoever
// received it and is left to the garbage collector.

// recycle returns a buffer whose last reference was dropped to the pool.
// Tests replace it to observe recycling.
var recycle = comm.RecyclePayload

type lease struct {
	t      *leaseTable
	buf    []byte
	refs   int // guarded by t.mu
	pinned bool
}

// Retain backs Context.Retain: one more reference, dropped by the returned
// idempotent release.
func (l *lease) Retain() (release func()) {
	l.t.mu.Lock()
	l.refs++
	l.t.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { l.t.release(l) }) }
}

// leaseTable is a worker's set of live leases, keyed by the address of the
// buffer's first byte.
type leaseTable struct {
	mu     sync.Mutex
	live   map[*byte]*lease
	closed bool
}

func bufKey(b []byte) *byte { return &b[:1][0] }

// open leases buf for an inject call, holding the caller's reference. It
// returns nil, leaving buf to the garbage collector, when buf has no
// capacity or the worker has stopped.
func (t *leaseTable) open(buf []byte) *lease {
	if cap(buf) == 0 {
		return nil
	}
	l := &lease{t: t, buf: buf, refs: 1}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if t.live == nil {
		t.live = make(map[*byte]*lease)
	}
	t.live[bufKey(buf)] = l
	return l
}

// ref takes a reference on the live lease of a delivered payload, or
// returns nil when it is not leased.
func (t *leaseTable) ref(p any) *lease {
	b, ok := p.([]byte)
	if !ok || cap(b) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.live[bufKey(b)]
	if l != nil {
		l.refs++
	}
	return l
}

// release drops one reference to l (nil is a no-op). The last one removes
// the lease and recycles the buffer unless it was pinned. After close the
// buffer is never recycled: a dropped callback's reference can no longer
// be accounted for.
func (t *leaseTable) release(l *lease) {
	if l == nil {
		return
	}
	t.mu.Lock()
	l.refs--
	done := l.refs == 0 && !t.closed
	if done {
		delete(t.live, bufKey(l.buf))
	}
	pinned := l.pinned
	t.mu.Unlock()
	if done && !pinned {
		recycle(l.buf)
	}
}

// pin marks the lease whose buffer contains p's backing array, if any, so
// the buffer is never recycled: p is being sent onward.
func (t *leaseTable) pin(p any) {
	b, ok := p.([]byte)
	if !ok || cap(b) == 0 {
		return
	}
	at := uintptr(unsafe.Pointer(bufKey(b)))
	t.mu.Lock()
	for _, l := range t.live {
		if at-uintptr(unsafe.Pointer(bufKey(l.buf))) < uintptr(cap(l.buf)) {
			l.pinned = true
			break
		}
	}
	t.mu.Unlock()
}

// close forgets every lease without recycling its buffer: the worker has
// stopped, and callbacks the lattice dropped will never release theirs.
func (t *leaseTable) close() {
	t.mu.Lock()
	t.closed = true
	t.live = nil
	t.mu.Unlock()
}

// outstanding reports the number of live leases.
func (t *leaseTable) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}
