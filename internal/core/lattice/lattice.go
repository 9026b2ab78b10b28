// Package lattice implements the execution lattice of §6.2: a dependency
// graph of bound callbacks that serves as the run queue for a worker's
// multi-threaded runtime.
//
// The lattice guarantees, per operator:
//
//   - watermark callbacks execute sequentially in timestamp order;
//   - a watermark callback for t executes only after every already-enqueued
//     message callback with timestamp <= t of the same operator completes;
//   - message callbacks may execute out of order — concurrently when the
//     operator opts into ModeParallelMessages, otherwise serialized with
//     every other callback of the operator (lock-free state access).
//
// Across operators the lattice is fully parallel. Ready callbacks are
// dispatched to a fixed pool of goroutines in EDF order: each callback
// carries the absolute deadline Di of its operator's current timestamp (pDP
// allocations plumbed down by the worker), shard run queues are min-heaps
// keyed on that deadline, and within a deadline the lattice prioritizes
// lower logical times first and, within a logical time, higher accuracy
// coordinates ĉ first, implementing §5.3's preference for higher-accuracy
// intermediate results. Callbacks without a deadline (NoDeadline) order
// after every deadline-bearing callback, in submission order. Deadlines are
// opaque virtual instants (int64 nanoseconds on whatever clock the caller
// uses); the lattice itself never reads a clock, so deterministic virtual
// time drives it exactly like the wall clock.
//
// Scalability: there is no global run-queue lock. Each operator guards its
// own pending heap and running set, dispatchable callbacks are pushed onto
// the submitting operator's home shard — one priority queue per pool
// goroutine — and idle goroutines steal the most-urgent head among the
// other shards (ties broken by the affinity-aware victim order, so a
// co-located chain rebalances onto warm caches first). Producers wake at
// most one parked goroutine per promoted callback (Signal, never a
// thundering-herd Broadcast), Items are recycled through a sync.Pool, and an
// operator's running message callbacks are tracked in an indexed min-heap so
// the watermark-barrier check is O(1) and completion is O(log n).
package lattice

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// NoDeadline marks a callback with no deadline pressure: it orders after
// every deadline-bearing callback. Deadlines are absolute instants in
// nanoseconds on an arbitrary (wall or virtual) clock epoch.
const NoDeadline int64 = math.MaxInt64

// maxDeadline is the largest storable deadline; shardEmpty is reserved to
// publish "no head" on an empty shard's headDl.
const (
	maxDeadline int64 = math.MaxInt64 - 1
	shardEmpty  int64 = math.MaxInt64
)

// Kind classifies a bound callback.
type Kind uint8

const (
	// KindMessage is an out-of-order data-message callback.
	KindMessage Kind = iota
	// KindWatermark is a timestamp-ordered watermark callback.
	KindWatermark
)

// Mode selects an operator's intra-operator parallelism.
type Mode uint8

const (
	// ModeSequential serializes all of the operator's callbacks; this is
	// the default and provides lock-free access to operator state.
	ModeSequential Mode = iota
	// ModeParallelMessages lets message callbacks run concurrently with
	// one another; watermark callbacks remain timestamp-ordered barriers.
	ModeParallelMessages
)

// Item is one bound callback.
type Item struct {
	op     *OpQueue
	ts     timestamp.Timestamp
	kind   Kind
	run    func()
	seq    uint64
	dl     int64 // absolute deadline (ns); NoDeadline when unconstrained
	idx    int   // heap index within a pending/shard heap, -1 when dispatched
	runIdx int   // heap index within the op's running heap, -1 when not running
}

// shard is one pool goroutine's local run queue. Shards are individually
// heap-allocated so their hot mutexes do not share a cache line.
type shard struct {
	mu sync.Mutex
	q  shardHeap
	// headDl publishes the deadline at the heap's root (shardEmpty when the
	// shard is dry) so thieves can pick the most-urgent victim without
	// taking every shard lock.
	headDl atomic.Int64
}

// publishHead refreshes the shard's advertised head deadline. Caller holds
// s.mu.
func (s *shard) publishHead() {
	if len(s.q) == 0 {
		s.headDl.Store(shardEmpty)
		return
	}
	s.headDl.Store(s.q[0].dl)
}

// Lattice is the worker-wide run queue.
type Lattice struct {
	shards []*shard

	// parked counts goroutines blocked on parkCond; producers check it
	// without the lock so an all-busy pool never pays for a wakeup.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	parked   atomic.Int32

	// ready counts callbacks sitting in shard queues; pending counts
	// callbacks submitted but not yet completed (queued, promoted or
	// in-flight).
	ready   atomic.Int64
	pending atomic.Int64

	idleMu   sync.Mutex
	idleCond *sync.Cond

	stopped  atomic.Bool
	seq      atomic.Uint64
	nextHome atomic.Uint32

	opsMu sync.Mutex
	ops   []*OpQueue

	// stealOrder is a per-shard victim ordering rebuilt whenever a pinned
	// operator registers: shards sharing an affinity group with the thief
	// come first, so a co-located chain rebalances onto goroutines whose
	// caches already hold its state before spilling to foreign shards. Nil
	// until the first pinned registration (plain round-robin applies).
	stealOrder  atomic.Pointer[[][]int]
	affinityMu  sync.Mutex
	shardGroups []map[int]struct{} // affinity keys homed on each shard

	itemPool sync.Pool
	wg       sync.WaitGroup
}

// New returns a lattice executing callbacks on `workers` goroutines.
func New(workers int) *Lattice {
	if workers < 1 {
		workers = 1
	}
	l := &Lattice{shards: make([]*shard, workers)}
	l.parkCond = sync.NewCond(&l.parkMu)
	l.idleCond = sync.NewCond(&l.idleMu)
	l.itemPool.New = func() any { return &Item{idx: -1, runIdx: -1} }
	for i := range l.shards {
		l.shards[i] = &shard{}
		l.shards[i].headDl.Store(shardEmpty)
	}
	l.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go l.worker(i)
	}
	return l
}

// NewOpQueue registers a new operator with the given parallelism mode. Its
// home shard is assigned round-robin.
func (l *Lattice) NewOpQueue(mode Mode) *OpQueue {
	return l.newOpQueue(mode, int(l.nextHome.Add(1)-1)%len(l.shards))
}

// NewOpQueuePinned registers an operator whose home shard is derived from
// an affinity key: every operator registered with the same key lands on the
// same shard, keeping a producer→consumer chain's callbacks on one
// goroutine's queue (work stealing may still rebalance under load). Keys
// are arbitrary; callers typically pass a graph affinity-group index.
// Registration also records the key against the home shard so idle
// goroutines steal same-group work first.
func (l *Lattice) NewOpQueuePinned(mode Mode, affinity int) *OpQueue {
	home := affinity % len(l.shards)
	if home < 0 {
		home += len(l.shards)
	}
	l.noteAffinity(home, affinity)
	return l.newOpQueue(mode, home)
}

// noteAffinity records that shard home hosts operators of the given
// affinity group and rebuilds the steal order snapshot.
func (l *Lattice) noteAffinity(home, affinity int) {
	l.affinityMu.Lock()
	defer l.affinityMu.Unlock()
	if l.shardGroups == nil {
		l.shardGroups = make([]map[int]struct{}, len(l.shards))
	}
	if l.shardGroups[home] == nil {
		l.shardGroups[home] = map[int]struct{}{}
	}
	l.shardGroups[home][affinity] = struct{}{}
	order := make([][]int, len(l.shards))
	for i := range l.shards {
		var same, other []int
		for off := 1; off < len(l.shards); off++ {
			j := (i + off) % len(l.shards)
			if sharesGroup(l.shardGroups[i], l.shardGroups[j]) {
				same = append(same, j)
			} else {
				other = append(other, j)
			}
		}
		order[i] = append(same, other...)
	}
	l.stealOrder.Store(&order)
}

func sharesGroup(a, b map[int]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

// StealOrder returns the victim ordering shard id uses when it runs dry,
// or nil while no pinned operator has registered (plain round-robin).
// Exposed for tests and diagnostics.
func (l *Lattice) StealOrder(id int) []int {
	ord := l.stealOrder.Load()
	if ord == nil || id < 0 || id >= len(*ord) {
		return nil
	}
	return append([]int(nil), (*ord)[id]...)
}

func (l *Lattice) newOpQueue(mode Mode, home int) *OpQueue {
	q := &OpQueue{lat: l, mode: mode, home: home}
	l.opsMu.Lock()
	l.ops = append(l.ops, q)
	l.opsMu.Unlock()
	return q
}

// SubmitDeadline enqueues a bound callback for op at timestamp ts whose
// operator must finish ts by the absolute instant deadline (nanoseconds on
// the caller's clock; pass NoDeadline when no deadline applies). Shard run
// queues dispatch earliest-deadline-first, so under saturation an urgent
// control callback overtakes slack-rich perception work instead of queueing
// behind it. Per-operator ordering guarantees are unaffected: the dispatch
// gate (canDispatchLocked) never lets two items that must be ordered coexist
// on shard heaps.
func (l *Lattice) SubmitDeadline(op *OpQueue, kind Kind, ts timestamp.Timestamp, deadline int64, run func()) {
	if l.stopped.Load() {
		return
	}
	if deadline > maxDeadline {
		deadline = maxDeadline
	}
	it := l.itemPool.Get().(*Item)
	it.op, it.ts, it.kind, it.run = op, ts, kind, run
	it.seq = l.seq.Add(1)
	it.dl = deadline
	it.idx, it.runIdx = -1, -1

	op.mu.Lock()
	if l.stopped.Load() {
		op.mu.Unlock()
		l.recycle(it)
		return
	}
	l.pending.Add(1)
	heap.Push(&op.pendingHeap, it)
	woke := l.promoteLocked(op)
	op.mu.Unlock()
	l.wake(woke)
}

// Quiesce blocks until every submitted callback has completed.
func (l *Lattice) Quiesce() {
	l.idleMu.Lock()
	for l.pending.Load() > 0 {
		l.idleCond.Wait()
	}
	l.idleMu.Unlock()
}

// Stop drains in-flight callbacks and shuts the worker pool down. Pending
// callbacks that were not yet dispatched are dropped — both the ones on
// shard run queues and the ones still blocked in per-operator pending heaps
// — and any concurrent Quiesce observes the drained count immediately.
func (l *Lattice) Stop() {
	l.stopped.Store(true)

	// Drop undispatched work from every operator's pending heap. Without
	// this, items blocked behind a running callback would stay counted in
	// pending forever and a concurrent Quiesce would never wake.
	l.opsMu.Lock()
	ops := append([]*OpQueue(nil), l.ops...)
	l.opsMu.Unlock()
	var dropped int64
	for _, op := range ops {
		op.mu.Lock()
		dropped += int64(len(op.pendingHeap))
		op.pendingHeap = nil
		op.mu.Unlock()
	}
	// Drop promoted-but-unclaimed work from the shard run queues.
	for _, s := range l.shards {
		s.mu.Lock()
		n := int64(len(s.q))
		s.q = nil
		s.publishHead()
		s.mu.Unlock()
		dropped += n
		l.ready.Add(-n)
	}
	l.pending.Add(-dropped)

	l.parkMu.Lock()
	l.parkCond.Broadcast()
	l.parkMu.Unlock()
	l.idleMu.Lock()
	l.idleCond.Broadcast()
	l.idleMu.Unlock()
	l.wg.Wait()
}

func (l *Lattice) worker(id int) {
	defer l.wg.Done()
	for {
		it := l.findWork(id)
		if it == nil {
			if l.stopped.Load() {
				return
			}
			l.park()
			continue
		}
		it.run()
		l.complete(it)
	}
}

// findWork pops the highest-priority callback from the goroutine's own
// shard, stealing from the other shards when it is empty. The thief scans
// the victims' published head deadlines and takes the most-urgent one; ties
// resolve to the earliest victim in the steal order, which lists
// same-affinity shards first once pinned operators have registered
// (round-robin before), so equally urgent work rebalances onto goroutines
// whose caches already hold its operators' state.
func (l *Lattice) findWork(id int) *Item {
	if it := l.popShard(id); it != nil {
		return it
	}
	if ord := l.stealOrder.Load(); ord != nil {
		return l.steal((*ord)[id])
	}
	n := len(l.shards)
	if n == 1 {
		return nil
	}
	victims := make([]int, 0, n-1)
	for off := 1; off < n; off++ {
		victims = append(victims, (id+off)%n)
	}
	return l.steal(victims)
}

// steal picks the victim advertising the earliest head deadline and pops
// it, rescanning when a race empties the chosen shard. The scan is
// lock-free (one atomic load per victim); only the final pop locks.
func (l *Lattice) steal(victims []int) *Item {
	for !l.stopped.Load() {
		best, bestDl := -1, shardEmpty
		for _, j := range victims {
			if dl := l.shards[j].headDl.Load(); dl < bestDl {
				best, bestDl = j, dl
			}
		}
		if best < 0 {
			return nil
		}
		if it := l.popShard(best); it != nil {
			return it
		}
	}
	return nil
}

func (l *Lattice) popShard(i int) *Item {
	s := l.shards[i]
	s.mu.Lock()
	if len(s.q) == 0 {
		// Re-publish emptiness defensively: a stale non-empty headDl would
		// make every thief rescan this shard forever.
		s.publishHead()
		s.mu.Unlock()
		return nil
	}
	it := heap.Pop(&s.q).(*Item)
	s.publishHead()
	s.mu.Unlock()
	l.ready.Add(-1)
	return it
}

// park blocks until new work is promoted or the lattice stops. The parked
// counter is published before the final emptiness check so a producer that
// promotes work concurrently either sees us parked (and signals under
// parkMu) or we see its ready increment (and skip the wait).
func (l *Lattice) park() {
	l.parkMu.Lock()
	l.parked.Add(1)
	for l.ready.Load() == 0 && !l.stopped.Load() {
		l.parkCond.Wait()
	}
	l.parked.Add(-1)
	l.parkMu.Unlock()
}

// wake signals up to n parked goroutines, one per promoted callback.
func (l *Lattice) wake(n int) {
	if n <= 0 || l.parked.Load() == 0 {
		return
	}
	l.parkMu.Lock()
	for i := 0; i < n; i++ {
		l.parkCond.Signal()
	}
	l.parkMu.Unlock()
}

// complete retires a finished callback: it clears the operator's running
// state, promotes newly dispatchable work, recycles the Item and wakes the
// idle waiters when the lattice drained.
func (l *Lattice) complete(it *Item) {
	op := it.op
	op.mu.Lock()
	op.completeLocked(it)
	woke := l.promoteLocked(op)
	op.mu.Unlock()
	l.recycle(it)
	if l.pending.Add(-1) == 0 {
		l.idleMu.Lock()
		l.idleCond.Broadcast()
		l.idleMu.Unlock()
	}
	l.wake(woke)
}

func (l *Lattice) recycle(it *Item) {
	*it = Item{idx: -1, runIdx: -1}
	l.itemPool.Put(it)
}

// promoteLocked moves every dispatchable item of op from its pending heap
// onto op's home shard, returning how many were promoted. Caller holds
// op.mu; the shard lock nests inside it (never the reverse).
func (l *Lattice) promoteLocked(op *OpQueue) int {
	if l.stopped.Load() {
		return 0
	}
	n := 0
	for len(op.pendingHeap) > 0 {
		head := op.pendingHeap[0]
		if !op.canDispatchLocked(head) {
			break
		}
		heap.Pop(&op.pendingHeap)
		op.noteDispatchLocked(head)
		// EDF on the shard heap cannot break an operator's ordering
		// guarantees: canDispatchLocked admits at most one item of a
		// sequential operator (and never a watermark concurrently with
		// anything), so only parallel message callbacks — which may legally
		// run out of order — ever coexist on shard heaps.
		l.pushShard(op.home, head)
		n++
	}
	return n
}

func (l *Lattice) pushShard(home int, it *Item) {
	s := l.shards[home]
	s.mu.Lock()
	if l.stopped.Load() {
		// Stop already drained this shard; drop the item like the rest of
		// the undispatched work (its operator never runs again).
		s.mu.Unlock()
		if l.pending.Add(-1) == 0 {
			l.idleMu.Lock()
			l.idleCond.Broadcast()
			l.idleMu.Unlock()
		}
		return
	}
	heap.Push(&s.q, it)
	s.publishHead()
	s.mu.Unlock()
	l.ready.Add(1)
}

// Depth reports the lattice's instantaneous queue depths: ready callbacks
// sitting in shard run queues and pending callbacks submitted but not yet
// completed. Heartbeats ship both as congestion signals for the leader's
// placement decisions.
func (l *Lattice) Depth() (ready, pending int64) {
	return l.ready.Load(), l.pending.Load()
}

// OpQueue tracks one operator's pending and running callbacks under its own
// lock; operators never contend with each other on submission or completion.
type OpQueue struct {
	lat  *Lattice
	mode Mode
	home int // preferred shard for this operator's callbacks

	mu          sync.Mutex
	pendingHeap itemHeap
	running     runningHeap // running message callbacks, min timestamp at root
	runningWM   bool
}

// canDispatchLocked reports whether it (the head of the pending heap) may
// run now. Caller holds q.mu.
func (q *OpQueue) canDispatchLocked(it *Item) bool {
	switch q.mode {
	case ModeSequential:
		return len(q.running) == 0 && !q.runningWM
	case ModeParallelMessages:
		if q.runningWM {
			return false // watermark callbacks are barriers
		}
		if it.kind == KindMessage {
			return true
		}
		// A watermark callback for t waits for running message callbacks
		// with timestamp <= t. Queued ones with ts <= t order before it in
		// the heap, so head position already implies they were dispatched;
		// the running heap's root is the minimum running timestamp.
		return len(q.running) == 0 || !q.running[0].ts.LessEq(it.ts)
	default:
		return false
	}
}

func (q *OpQueue) noteDispatchLocked(it *Item) {
	if it.kind == KindWatermark {
		q.runningWM = true
	} else {
		heap.Push(&q.running, it)
	}
}

func (q *OpQueue) completeLocked(it *Item) {
	if it.kind == KindWatermark {
		q.runningWM = false
		return
	}
	if it.runIdx >= 0 {
		heap.Remove(&q.running, it.runIdx)
	}
}

// less orders items: lower logical time first; within a logical time,
// watermark callbacks after message callbacks; higher accuracy coordinates
// first among data callbacks of the same logical time (§5.3); FIFO ties.
func less(a, b *Item) bool {
	if a.ts.L != b.ts.L {
		return a.ts.L < b.ts.L
	}
	if a.ts.IsTop() != b.ts.IsTop() {
		return !a.ts.IsTop()
	}
	if a.kind != b.kind {
		return a.kind == KindMessage // messages before the watermark barrier
	}
	if a.kind == KindMessage {
		// Prefer higher ĉ (more accurate input) first.
		c := a.ts.Cmp(b.ts)
		if c != 0 {
			return c > 0
		}
	} else if c := a.ts.Cmp(b.ts); c != 0 {
		return c < 0 // watermarks strictly in timestamp order
	}
	return a.seq < b.seq
}

// itemHeap is the per-operator pending heap: timestamp priority only, since
// everything in it belongs to one operator and shares its deadline pressure.
type itemHeap []*Item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return less(h[i], h[j]) }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *itemHeap) Push(x any)        { it := x.(*Item); it.idx = len(*h); *h = append(*h, it) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*h = old[:n-1]
	return it
}

// shardHeap is a shard's run queue: earliest absolute deadline first (EDF),
// then the lattice's timestamp priority, then FIFO by submission sequence.
// It shares Item.idx with itemHeap — an item is only ever in one of the two.
type shardHeap []*Item

func (h shardHeap) Len() int { return len(h) }
func (h shardHeap) Less(i, j int) bool {
	if h[i].dl != h[j].dl {
		return h[i].dl < h[j].dl
	}
	return less(h[i], h[j])
}
func (h shardHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *shardHeap) Push(x any)   { it := x.(*Item); it.idx = len(*h); *h = append(*h, it) }
func (h *shardHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*h = old[:n-1]
	return it
}

// runningHeap indexes an operator's in-flight message callbacks by
// timestamp: the root is the minimum running timestamp (O(1) watermark
// barrier check) and completion removes by stored index (O(log n)),
// replacing the former linear scan of a slice.
type runningHeap []*Item

func (h runningHeap) Len() int           { return len(h) }
func (h runningHeap) Less(i, j int) bool { return h[i].ts.Less(h[j].ts) }
func (h runningHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].runIdx, h[j].runIdx = i, j }
func (h *runningHeap) Push(x any)        { it := x.(*Item); it.runIdx = len(*h); *h = append(*h, it) }
func (h *runningHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.runIdx = -1
	*h = old[:n-1]
	return it
}
