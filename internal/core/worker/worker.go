// Package worker implements ERDOS' worker runtime (§6 of the paper): it
// instantiates a dataflow graph's streams and operators, executes callbacks
// on the execution lattice, maintains per-stream statistics that drive
// deadline start and end conditions, arms deadlines, and orchestrates
// deadline exception handlers under the Abort and Continue policies.
//
// A Worker owns a broadcaster for every stream of the graph but only
// instantiates the operators assigned to it, so the same type serves both
// the single-process local mode and the leader/worker distributed mode: the
// comm layer forwards messages of remote readers by subscribing to local
// broadcasters and injects messages from remote writers via Inject.
package worker

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/lattice"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// Options configures a Worker.
type Options struct {
	// Name identifies the worker; operators whose Placement matches (or is
	// empty when Local is set) run here.
	Name string
	// Local instantiates every operator regardless of placement.
	Local bool
	// Owns overrides placement when non-nil: an operator is instantiated
	// here iff Owns(spec) (used by the leader's scheduling decisions).
	Owns func(spec string) bool
	// Threads sizes the lattice's goroutine pool (default 8).
	Threads int
	// Clock drives deadline enforcement (default the wall clock).
	Clock deadline.Clock
	// HistoryDepth bounds how many logical times of state versions,
	// tracking entries and pDP deadline updates are retained behind the
	// newest completed time (default 64). It bounds retention only: a
	// watermark costs what it closes, not what is retained.
	HistoryDepth uint64
	// WrapCallback, when non-nil, wraps every operator callback before it
	// is submitted to the lattice (fault-injection stalls, tracing). It is
	// called once per callback with the operator name.
	WrapCallback func(op string, f func()) func()
}

// Stats is a snapshot of a worker's counters.
type Stats struct {
	Delivered        uint64
	DroppedStale     uint64
	WatermarkBatches uint64
	DeadlineMisses   uint64
	HandlerRuns      uint64
	InsertedWMs      uint64
	// UrgencyMisses counts callbacks the lattice dispatched only after their
	// operator's deadline Di had already expired — queueing-induced misses,
	// the scheduler-side congestion signal.
	UrgencyMisses uint64
	// HandlerDelays records the delay between each deadline expiry and the
	// start of its exception handler.
	HandlerDelays []time.Duration
}

// Congestion is a snapshot of a worker's queueing pressure, shipped in
// heartbeats so the leader's placement can steer operators away from
// saturated workers: instantaneous lattice queue depths plus the cumulative
// urgency-miss count.
type Congestion struct {
	// Ready counts callbacks sitting in lattice run queues; Pending counts
	// callbacks submitted but not yet completed.
	Ready   int64
	Pending int64
	// UrgencyMisses counts callbacks dispatched after their deadline expired.
	UrgencyMisses uint64
}

// Worker executes the operators of one graph partition.
type Worker struct {
	name    string
	lat     *lattice.Lattice
	mon     *deadline.Monitor
	clock   deadline.Clock
	history uint64
	wrapCB  func(op string, f func()) func()
	// gm is the composite view of every graph this worker hosts: the base
	// graph from New plus tenant graphs added by Extend. Retained so
	// failover and tenant admission can instantiate operators after New.
	gm *graph.Multi

	// bcast is the broadcaster-per-stream map, read lock-free on the
	// data-plane hot path (Inject). Extend publishes a copied map with the
	// new tenant's streams added; extendMu serializes the writers.
	bcast    atomic.Pointer[map[stream.ID]*stream.Broadcaster]
	extendMu sync.Mutex
	// opsMu guards ops and producers: both were write-once at New until
	// Adopt (failover re-placement) started installing operators at runtime.
	opsMu sync.RWMutex
	ops   map[string]*opRuntime
	// producers maps each stream to the local operator writing it, for
	// deadline-slack queries on outbound messages (SendDeadline).
	producers map[stream.ID]*opRuntime

	// Per-message counters are atomics: countDelivered/countStale sit on the
	// data-plane hot path and must not funnel every message through one
	// mutex. Only the handler-delay slice keeps a lock.
	delivered     atomic.Uint64
	stale         atomic.Uint64
	wmBatches     atomic.Uint64
	misses        atomic.Uint64
	handlerRuns   atomic.Uint64
	insertedWMs   atomic.Uint64
	urgencyMisses atomic.Uint64

	handlerMu     sync.Mutex
	handlerDelays []time.Duration

	// leases tracks the transport-received payloads this worker owns until
	// their last local callback returns (lease.go).
	leases leaseTable

	// extFrontiers tracks received watermarks for subscription-only
	// consumers (extraction points): streams delivered here for the
	// application, not for any local operator. Without an operator runtime
	// there is no inWM entry, so TrackFrontier taps the broadcaster
	// directly; Frontiers folds these in so the leader's consistent-cut
	// intersection covers extraction points too.
	extMu        sync.Mutex
	extFrontiers map[stream.ID]uint64

	wg sync.WaitGroup
}

// New builds a worker for graph g. The graph must already Validate().
func New(g *graph.Graph, opts Options) (*Worker, error) {
	gm, err := graph.NewMulti(g)
	if err != nil {
		return nil, err
	}
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	if opts.Clock == nil {
		opts.Clock = deadline.Real{}
	}
	if opts.HistoryDepth == 0 {
		opts.HistoryDepth = 64
	}
	w := &Worker{
		name:      opts.Name,
		lat:       lattice.New(opts.Threads),
		mon:       deadline.NewMonitor(opts.Clock),
		clock:     opts.Clock,
		history:   opts.HistoryDepth,
		wrapCB:    opts.WrapCallback,
		gm:        gm,
		ops:       make(map[string]*opRuntime),
		producers: make(map[stream.ID]*opRuntime),
	}
	bcast := make(map[stream.ID]*stream.Broadcaster)
	for _, s := range g.Streams() {
		bcast[s.ID] = stream.NewBroadcaster(s.ID, s.Name)
	}
	w.bcast.Store(&bcast)
	for _, spec := range g.Operators() {
		switch {
		case opts.Local:
			// instantiate everything
		case opts.Owns != nil:
			if !opts.Owns(spec.Name) {
				continue
			}
		default:
			if spec.Placement != opts.Name {
				continue
			}
		}
		rt, err := w.newOpRuntime(spec, gm, nil, 0, nil)
		if err != nil {
			w.Stop()
			return nil, err
		}
		w.ops[spec.Name] = rt
		for _, id := range spec.Outputs {
			w.producers[id] = rt
		}
	}
	w.wireFeeds(g.DeadlineFeeds())
	return w, nil
}

// View returns the composite graph view this worker hosts: the base graph
// plus every tenant graph added by Extend.
func (w *Worker) View() graph.View { return w.gm }

// wireFeeds subscribes each dynamic-deadline feed to its stream.
func (w *Worker) wireFeeds(feeds []graph.DeadlineFeed) {
	for _, feed := range feeds {
		b, ok := w.bc(feed.Stream)
		if !ok {
			continue
		}
		target := feed.Target
		b.Subscribe(stream.SubscriberFunc(func(_ stream.ID, m message.Message) {
			if !m.IsData() {
				return
			}
			if d, ok := m.Payload.(time.Duration); ok {
				target.Update(m.Timestamp, d)
			}
		}))
	}
}

// Extend adds a tenant graph to this worker at runtime: broadcasters for
// the new streams are published copy-on-write (the data-plane hot path
// reads the map lock-free) and the tenant's deadline feeds are wired. No
// operators are instantiated — they arrive through Adopt when the leader's
// schedule assigns them here. The sub-graph must be fully built before
// Extend and never mutated afterwards; its operator names must not collide
// with any graph this worker already hosts.
func (w *Worker) Extend(sub *graph.Graph) error {
	w.extendMu.Lock()
	defer w.extendMu.Unlock()
	if err := w.gm.Add(sub); err != nil {
		return err
	}
	old := *w.bcast.Load()
	next := make(map[stream.ID]*stream.Broadcaster, len(old)+len(sub.Streams()))
	for id, b := range old {
		next[id] = b
	}
	for _, s := range sub.Streams() {
		if _, dup := next[s.ID]; !dup {
			next[s.ID] = stream.NewBroadcaster(s.ID, s.Name)
		}
	}
	w.bcast.Store(&next)
	w.wireFeeds(sub.DeadlineFeeds())
	return nil
}

// bc returns the broadcaster of stream id from the current COW map.
func (w *Worker) bc(id stream.ID) (*stream.Broadcaster, bool) {
	b, ok := (*w.bcast.Load())[id]
	return b, ok
}

// Broadcaster returns the local writer end of stream id.
func (w *Worker) Broadcaster(id stream.ID) (*stream.Broadcaster, bool) {
	return w.bc(id)
}

// Inject sends m on stream id, as the application (ingest streams) or the
// comm layer (messages from remote writers) would. When the transport
// marked m Owned, the worker takes its []byte payload over: the inject call
// holds it while the subscribers run, each data callback queued for it
// holds it until that callback returns, and the last of them returns it to
// the pool. Any other payload stays the caller's.
func (w *Worker) Inject(id stream.ID, m message.Message) error {
	b, ok := w.bc(id)
	if !ok {
		return fmt.Errorf("worker %q: inject on unknown stream %d", w.name, id)
	}
	if !m.Owned {
		return b.Send(m)
	}
	buf, _ := m.Payload.([]byte)
	l := w.leases.open(buf)
	err := b.Send(m)
	w.leases.release(l)
	return err
}

// Subscribe registers fn to observe every message on stream id (extract
// streams, the comm layer's remote forwarding, instrumentation). fn runs
// synchronously with the send, and a []byte payload is valid for the
// duration of the call: the worker may recycle a payload it received from
// the transport as soon as the local callbacks are done with it. A
// subscriber that keeps the payload, hands it to another goroutine or
// injects it again must copy it.
func (w *Worker) Subscribe(id stream.ID, fn func(message.Message)) error {
	b, ok := w.bc(id)
	if !ok {
		return fmt.Errorf("worker %q: subscribe on unknown stream %d", w.name, id)
	}
	b.Subscribe(stream.SubscriberFunc(func(_ stream.ID, m message.Message) {
		m.Owned = false
		fn(m)
	}))
	return nil
}

// SendDeadline reports the absolute instant by which the operator producing
// stream id must finish timestamp ts — the deadline slack available to the
// data plane when forwarding that timestamp's output to remote consumers.
// It returns false when the producing operator is not local, declares no
// timestamp deadline, or has not yet seen ts arrive (no deadline armed).
func (w *Worker) SendDeadline(id stream.ID, ts timestamp.Timestamp) (time.Time, bool) {
	w.opsMu.RLock()
	rt, ok := w.producers[id]
	w.opsMu.RUnlock()
	if !ok || len(rt.ttSpecs) == 0 || ts.IsTop() {
		return time.Time{}, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, tw := rt.findLocked(ts.L)
	if tw == nil || !tw.hasArrival {
		return time.Time{}, false
	}
	return tw.firstArrival.Add(rt.ttSpecs[0].Value.For(tw.ts)), true
}

// Quiesce waits for every scheduled callback to complete.
func (w *Worker) Quiesce() { w.lat.Quiesce() }

// WaitHandlers waits for in-flight deadline exception handlers.
func (w *Worker) WaitHandlers() { w.wg.Wait() }

// Stop tears the worker down. Payloads still leased to callbacks the
// lattice dropped are left to the garbage collector.
func (w *Worker) Stop() {
	w.mon.Stop()
	w.lat.Stop()
	w.wg.Wait()
	w.leases.close()
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats {
	s := Stats{
		Delivered:        w.delivered.Load(),
		DroppedStale:     w.stale.Load(),
		WatermarkBatches: w.wmBatches.Load(),
		DeadlineMisses:   w.misses.Load(),
		HandlerRuns:      w.handlerRuns.Load(),
		InsertedWMs:      w.insertedWMs.Load(),
		UrgencyMisses:    w.urgencyMisses.Load(),
	}
	w.handlerMu.Lock()
	s.HandlerDelays = append([]time.Duration(nil), w.handlerDelays...)
	w.handlerMu.Unlock()
	return s
}

// Congestion reports the worker's current queueing pressure.
func (w *Worker) Congestion() Congestion {
	ready, pending := w.lat.Depth()
	return Congestion{Ready: ready, Pending: pending, UrgencyMisses: w.urgencyMisses.Load()}
}

// Operator returns diagnostic information about a local operator.
func (w *Worker) Operator(name string) (OpInfo, bool) {
	w.opsMu.RLock()
	rt, ok := w.ops[name]
	w.opsMu.RUnlock()
	if !ok {
		return OpInfo{}, false
	}
	return rt.info(), true
}

// Has reports whether the named operator is instantiated on this worker.
func (w *Worker) Has(name string) bool {
	w.opsMu.RLock()
	_, ok := w.ops[name]
	w.opsMu.RUnlock()
	return ok
}

// Checkpoint snapshots the named operator's time-versioned state at its
// newest committed watermark. ok is false when the operator is not local or
// has not committed yet.
func (w *Worker) Checkpoint(name string) (state.Checkpoint, bool) {
	w.opsMu.RLock()
	rt, ok := w.ops[name]
	w.opsMu.RUnlock()
	if !ok {
		return state.Checkpoint{}, false
	}
	return state.Snapshot(rt.st)
}

// Checkpoints snapshots every local operator with committed state, keyed by
// operator name — the lazy checkpoint payload shipped to the leader with
// each heartbeat.
func (w *Worker) Checkpoints() map[string]state.Checkpoint {
	w.opsMu.RLock()
	names := make([]string, 0, len(w.ops))
	for name := range w.ops {
		names = append(names, name)
	}
	w.opsMu.RUnlock()
	out := make(map[string]state.Checkpoint, len(names))
	for _, name := range names {
		if cp, ok := w.Checkpoint(name); ok {
			out[name] = cp
		}
	}
	return out
}

// TrackFrontier registers a subscription-only consumed stream (an
// extraction point) for frontier reporting: a tap on the stream's
// broadcaster records each delivered watermark, standing in for the input
// watermark an operator runtime would have kept. Idempotent per stream.
// Broadcaster delivery is FIFO per stream, so when the tap has seen
// watermark L every data message at or below L has been handed to the
// application's subscribers too.
func (w *Worker) TrackFrontier(id stream.ID) error {
	w.extMu.Lock()
	if w.extFrontiers == nil {
		w.extFrontiers = make(map[stream.ID]uint64)
	}
	if _, ok := w.extFrontiers[id]; ok {
		w.extMu.Unlock()
		return nil
	}
	w.extFrontiers[id] = 0
	w.extMu.Unlock()
	return w.Subscribe(id, func(m message.Message) {
		if m.IsData() {
			return
		}
		w.extMu.Lock()
		if m.Timestamp.L > w.extFrontiers[id] {
			w.extFrontiers[id] = m.Timestamp.L
		}
		w.extMu.Unlock()
	})
}

// Frontiers reports, per input stream, the lowest received input watermark
// across this worker's local operators consuming it. Everything at or below
// a stream's frontier has been delivered locally (watermarks trail their
// data FIFO per stream), so an upstream producer restored at a cut no newer
// than the frontier can never skip an output this worker still needs.
// Shipped with heartbeats; the leader intersects survivors' frontiers to
// pick the consistent restore cut during failover. Tracked extraction
// points (TrackFrontier) report alongside operator inputs, minimum-merged
// when a stream is both.
func (w *Worker) Frontiers() map[stream.ID]uint64 {
	w.opsMu.RLock()
	rts := make([]*opRuntime, 0, len(w.ops))
	for _, rt := range w.ops {
		rts = append(rts, rt)
	}
	w.opsMu.RUnlock()
	out := make(map[stream.ID]uint64)
	for _, rt := range rts {
		rt.mu.Lock()
		for i, id := range rt.spec.Inputs {
			var l uint64
			if rt.inWM[i].have {
				l = rt.inWM[i].ts.L
			}
			if cur, ok := out[id]; !ok || l < cur {
				out[id] = l
			}
		}
		rt.mu.Unlock()
	}
	w.extMu.Lock()
	for id, l := range w.extFrontiers {
		if cur, ok := out[id]; !ok || l < cur {
			out[id] = l
		}
	}
	w.extMu.Unlock()
	return out
}

// Adopt instantiates the named operator on this worker at runtime — the
// failover path re-placing a dead worker's operators onto a survivor. When
// cp is non-nil the operator's state is restored at the newest checkpointed
// version at or below restoreAt (the consistent cut the leader computed
// from surviving consumers' frontiers) and every input watermark starts at
// the restored version, so replayed input at or below the restore point is
// dropped as stale instead of double-applied — while everything after it is
// re-processed, regenerating outputs the failed worker may have produced
// but never delivered. Pass math.MaxUint64 as restoreAt to restore at the
// newest version unconditionally.
//
// replay optionally carries each input stream's retained recent messages:
// they are fed to the operator after the watermark fence is installed but
// before the live input subscriptions, so a replayed window is applied in
// order and can never be shadowed by a racing live watermark. Adopting an
// operator that is already local is a no-op.
func (w *Worker) Adopt(name string, cp *state.Checkpoint, restoreAt uint64, replay map[stream.ID][]message.Message) error {
	var spec *operator.Spec
	for _, s := range w.gm.Operators() {
		if s.Name == name {
			spec = s
			break
		}
	}
	if spec == nil {
		return fmt.Errorf("worker %q: adopt unknown operator %q", w.name, name)
	}
	w.opsMu.Lock()
	if _, dup := w.ops[name]; dup {
		w.opsMu.Unlock()
		return nil
	}
	w.opsMu.Unlock()
	// Instantiate outside the lock: newOpRuntime subscribes to input
	// broadcasters, and a concurrent delivery could re-enter worker
	// counters. The restored watermarks are installed before the input
	// subscriptions inside newOpRuntime, so no message can slip under them.
	rt, err := w.newOpRuntime(spec, w.gm, cp, restoreAt, replay)
	if err != nil {
		return err
	}
	w.opsMu.Lock()
	w.ops[name] = rt
	for _, id := range spec.Outputs {
		w.producers[id] = rt
	}
	w.opsMu.Unlock()
	return nil
}

// RewindOpen discards the named operator's open (uncommitted) timestamps:
// every working view above the input low watermark whose completion has not
// been scheduled is dropped, and already-queued callbacks for those times
// become no-ops (they re-check the time window at dispatch). The committed state
// and the input watermark fences are untouched.
//
// This is the consumer half of relay-failure recovery: a dead relay loses a
// contiguous suffix of its stream, and the tail of what DID arrive may sit
// partially applied in an open view — a tick whose data landed but whose
// closing watermark died in the relay's queue. The producer force-replays
// the retained window from the last closed tick; rewinding first means the
// replayed data rebuilds those ticks from the committed state instead of
// double-applying into a dirty view. Only call it for operators all of
// whose inputs routed through the dead relay — an unaffected input's open
// contributions would be discarded with no replay to rebuild them.
func (w *Worker) RewindOpen(name string) {
	w.opsMu.RLock()
	rt, ok := w.ops[name]
	w.opsMu.RUnlock()
	if !ok {
		return
	}
	rt.mu.Lock()
	// Every time below the scheduling cursor is scheduled or done, so only
	// the open tail can hold droppable views.
	for i := rt.times.Len() - 1; i >= rt.sched; i-- {
		if tw := *rt.times.At(i); !tw.scheduled && !tw.handledAbort {
			rt.times.Delete(i)
		}
	}
	rt.mu.Unlock()
}

// LocalOps returns the names of the operators instantiated on this worker.
func (w *Worker) LocalOps() []string {
	w.opsMu.RLock()
	defer w.opsMu.RUnlock()
	out := make([]string, 0, len(w.ops))
	for name := range w.ops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Release freezes the named operators (nil means every local operator),
// snapshots their state and removes them from this worker — the donor side
// of a planned drain or migration. A released operator stops accepting
// input and producing output the moment its retired flag is set; a
// callback already dispatched may still commit or send once more, which is
// safe: the adopter restores at the leader's consistent cut and consumers
// stale-drop regenerated duplicates, the same contract failover relies on.
// The returned checkpoints are what the adopters restore from.
func (w *Worker) Release(names []string) map[string]state.Checkpoint {
	w.opsMu.Lock()
	if names == nil {
		names = make([]string, 0, len(w.ops))
		for name := range w.ops {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	rts := make(map[string]*opRuntime, len(names))
	for _, name := range names {
		if rt, ok := w.ops[name]; ok {
			rt.retired.Store(true)
			rts[name] = rt
		}
	}
	w.opsMu.Unlock()
	out := make(map[string]state.Checkpoint, len(rts))
	for name, rt := range rts {
		if cp, ok := state.Snapshot(rt.st); ok {
			out[name] = cp
		}
	}
	w.opsMu.Lock()
	for name, rt := range rts {
		delete(w.ops, name)
		for _, id := range rt.spec.Outputs {
			if w.producers[id] == rt {
				delete(w.producers, id)
			}
		}
	}
	w.opsMu.Unlock()
	return out
}

// OpUrgencyMisses reports the cumulative urgency-miss count per local
// operator — the per-tenant slice of the worker-wide counter Congestion
// carries. The leader differences consecutive heartbeats and aggregates by
// tenant, so one tenant's blown deadlines are attributable to it alone.
func (w *Worker) OpUrgencyMisses() map[string]uint64 {
	w.opsMu.RLock()
	defer w.opsMu.RUnlock()
	out := make(map[string]uint64, len(w.ops))
	for name, rt := range w.ops {
		if n := rt.urgMiss.Load(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// OpInfo is a diagnostic snapshot of one operator.
type OpInfo struct {
	Name           string
	LowWatermark   timestamp.Timestamp
	HasWatermark   bool
	PendingTimes   int
	CommittedTimes int
}

// --- operator runtime ---

type opRuntime struct {
	w    *Worker
	spec *operator.Spec
	q    *lattice.OpQueue
	st   state.Store
	outs []operator.Output
	// wrap decorates callbacks before lattice submission (stall injection);
	// nil means submit as-is.
	wrap func(f func()) func()

	ttTrackers []*deadline.TimestampTracker
	ttSpecs    []operator.TimestampDeadlineSpec
	freq       []freqWiring

	// retired freezes the runtime: a drained/migrating operator stops
	// accepting input and running callbacks the instant the flag is set,
	// while its state remains snapshottable. Checked lock-free on every
	// receive and dispatch.
	retired atomic.Bool
	// urgMiss counts this operator's urgency misses (deadline already
	// expired when the lattice dispatched the callback) — the per-operator
	// slice of Worker.urgencyMisses used for tenant attribution.
	urgMiss atomic.Uint64

	// dyn lists the operator's pDP-fed deadline sources, trimmed by the
	// same cut as its state and trackers.
	dyn []*deadline.Dynamic

	mu   sync.Mutex
	inWM []wmState
	// times holds one work record per open or recently completed logical
	// time, ascending. sched indexes the first record whose watermark
	// callback may still need scheduling: every record before it is
	// scheduled or done, so a watermark walks only the times it closes.
	times     timestamp.Window[*timeWork]
	sched     int
	committed int
}

type wmState struct {
	ts   timestamp.Timestamp
	have bool
}

type timeWork struct {
	ts           timestamp.Timestamp
	view         any
	viewMade     bool
	gate         *operator.Gate
	firstArrival time.Time
	hasArrival   bool
	scheduled    bool // watermark callback submitted
	handledAbort bool // an Abort DEH took over this time
	done         bool // watermark processing finished (committed or aborted)
}

func (w *Worker) newOpRuntime(spec *operator.Spec, g graph.View, cp *state.Checkpoint, restoreAt uint64, replay map[stream.ID][]message.Message) (*opRuntime, error) {
	// Operators in an affinity group share a home shard on the lattice so a
	// producer→consumer chain's callbacks stay on one goroutine's queue.
	var q *lattice.OpQueue
	if gid, ok := g.AffinityOf(spec.Name); ok {
		q = w.lat.NewOpQueuePinned(spec.Mode, gid)
	} else {
		q = w.lat.NewOpQueue(spec.Mode)
	}
	rt := &opRuntime{
		w:    w,
		spec: spec,
		q:    q,
		inWM: make([]wmState, len(spec.Inputs)),
	}
	if w.wrapCB != nil {
		name := spec.Name
		rt.wrap = func(f func()) func() { return w.wrapCB(name, f) }
	}
	if spec.NewState != nil {
		rt.st = spec.NewState()
	} else {
		rt.st = state.NewNone()
	}
	if cp != nil {
		// Restore before any input subscription exists: the committed state
		// reappears at the chosen version's watermark and every input
		// watermark starts there, so replayed traffic at or below it is
		// stale-dropped rather than double-applied. The fence is the
		// watermark actually restored — possibly older than the newest
		// checkpointed version, when a surviving consumer's frontier shows
		// that later outputs of the failed worker were lost in flight and
		// must be regenerated.
		fenceL, err := state.RestoreAt(rt.st, *cp, restoreAt)
		if err != nil {
			return nil, fmt.Errorf("worker %q: restore %q: %w", w.name, spec.Name, err)
		}
		ts := timestamp.New(fenceL)
		for i := range rt.inWM {
			rt.inWM[i] = wmState{ts: ts, have: true}
		}
	}
	for i, id := range spec.Outputs {
		b, ok := w.bc(id)
		if !ok {
			return nil, fmt.Errorf("worker %q: operator %q output stream %d missing", w.name, spec.Name, id)
		}
		rt.outs = append(rt.outs, &gatedOutput{rt: rt, b: b, index: i})
	}
	for _, ds := range spec.Deadlines {
		ds := ds
		tr := deadline.NewTimestampTracker(w.mon, ds.Value, ds.Policy, nil)
		tr.Start = ds.Start
		tr.End = ds.End
		tr.OnMiss = func(m deadline.Miss) { rt.onMiss(ds, m) }
		rt.ttTrackers = append(rt.ttTrackers, tr)
		rt.ttSpecs = append(rt.ttSpecs, ds)
		rt.noteDynamic(ds.Value)
	}
	// Feed the replayed window through the normal receive path before the
	// live subscriptions exist: replayed messages enqueue in order, the
	// restored fence drops anything already applied, and no live message
	// can overtake them.
	for i, id := range spec.Inputs {
		for _, m := range replay[id] {
			rt.onReceive(i, m)
		}
	}
	for i, id := range spec.Inputs {
		input := i
		b, ok := w.bc(id)
		if !ok {
			return nil, fmt.Errorf("worker %q: operator %q input stream %d missing", w.name, spec.Name, id)
		}
		b.Subscribe(stream.SubscriberFunc(func(_ stream.ID, m message.Message) {
			rt.onReceive(input, m)
		}))
	}
	for _, fs := range spec.FrequencyDeadlines {
		fs := fs
		fr := deadline.NewFrequencyTracker(w.mon, fs.Value, func(last timestamp.Timestamp, _ deadline.Miss) {
			rt.insertWatermark(fs, last)
		})
		rt.freqAttach(fs.Input, fr)
		rt.noteDynamic(fs.Value)
	}
	return rt, nil
}

// noteDynamic records src for history GC when it is a pDP-fed source.
func (rt *opRuntime) noteDynamic(src deadline.Source) {
	if d, ok := src.(*deadline.Dynamic); ok {
		rt.dyn = append(rt.dyn, d)
	}
}

// freqTrackers are attached per input; stored on the runtime for receive
// hooks.
type freqWiring struct {
	input int
	fr    *deadline.FrequencyTracker
}

func (rt *opRuntime) freqAttach(input int, fr *deadline.FrequencyTracker) {
	rt.freq = append(rt.freq, freqWiring{input: input, fr: fr})
}

// onReceive handles a message delivered on input i.
func (rt *opRuntime) onReceive(i int, m message.Message) {
	if rt.retired.Load() {
		return
	}
	rt.mu.Lock()
	if m.IsWatermark() {
		ws := &rt.inWM[i]
		if ws.have && m.Timestamp.LessEq(ws.ts) {
			// Stale or duplicate watermark (e.g. the real input arriving
			// after a frequency deadline already simulated it).
			rt.w.countStale()
			rt.mu.Unlock()
			return
		}
		ws.ts, ws.have = m.Timestamp, true
		tw := rt.timeLocked(m.Timestamp)
		rt.noteArrivalLocked(tw)
		for _, tr := range rt.ttTrackers {
			tr.ObserveReceive(m.Timestamp, true)
		}
		for _, fw := range rt.freq {
			if fw.input == i {
				fw.fr.ObserveWatermark(m.Timestamp)
			}
		}
		rt.scheduleCompleteLocked()
		rt.mu.Unlock()
		rt.w.countDelivered()
		return
	}

	// Data message.
	low, haveLow := rt.lowWatermarkLocked()
	if haveLow && m.Timestamp.L <= low.L && !low.IsTop() {
		rt.w.countStale()
		rt.mu.Unlock()
		return
	}
	tw := rt.timeLocked(m.Timestamp)
	rt.noteArrivalLocked(tw)
	for _, tr := range rt.ttTrackers {
		tr.ObserveReceive(m.Timestamp, false)
	}
	queue := rt.spec.OnData != nil && !tw.handledAbort
	dl := rt.deadlineLocked(tw)
	rt.mu.Unlock()
	rt.w.countDelivered()
	if !queue {
		return
	}
	// The queued callback holds its own reference to an owned payload.
	var ls *lease
	if m.Owned {
		ls = rt.w.leases.ref(m.Payload)
		m.Owned = false
	}
	input, l := i, m.Timestamp.L
	run := func() { rt.runData(l, input, m, ls) }
	if rt.wrap != nil {
		run = rt.wrap(run)
	}
	rt.submit(lattice.KindMessage, m.Timestamp, dl, run)
}

// deadlineLocked reports the absolute deadline Di (nanoseconds on the
// worker's clock epoch) by which the operator must finish tw's timestamp —
// the instant the lattice uses for EDF dispatch — or lattice.NoDeadline when
// the operator declares no timestamp deadline or ts has no arrival anchor
// yet. Caller holds rt.mu.
func (rt *opRuntime) deadlineLocked(tw *timeWork) int64 {
	if len(rt.ttSpecs) == 0 || !tw.hasArrival {
		return lattice.NoDeadline
	}
	return tw.firstArrival.Add(rt.ttSpecs[0].Value.For(tw.ts)).UnixNano()
}

// submit hands a callback to the lattice carrying the operator's deadline.
// Deadline-bearing callbacks check, at the instant the lattice dispatches
// them, whether the deadline already expired while they queued: such
// urgency misses are counted as the scheduler-side congestion signal the
// leader's placement consumes. The check wraps outside any fault-injection
// wrapper so an injected stall does not masquerade as queueing delay.
func (rt *opRuntime) submit(kind lattice.Kind, ts timestamp.Timestamp, dl int64, run func()) {
	if dl != lattice.NoDeadline {
		inner := run
		run = func() {
			if rt.w.clock.Now().UnixNano() > dl {
				rt.w.urgencyMisses.Add(1)
				rt.urgMiss.Add(1)
			}
			inner()
		}
	}
	rt.w.lat.SubmitDeadline(rt.q, kind, ts, dl, run)
}

// runData executes the data callback for one message, then drops the
// callback's reference to an owned payload — also when the callback is
// skipped because the operator retired or the timestamp was aborted.
func (rt *opRuntime) runData(l uint64, input int, m message.Message, ls *lease) {
	defer rt.w.leases.release(ls)
	if rt.retired.Load() {
		return
	}
	rt.mu.Lock()
	_, tw := rt.findLocked(l)
	if tw == nil || tw.handledAbort || tw.done {
		rt.mu.Unlock()
		return
	}
	ctx := rt.contextLocked(tw, ls)
	rt.mu.Unlock()
	rt.spec.OnData(ctx, input, m)
}

// scheduleCompleteLocked submits, in ascending logical time, watermark
// callbacks for every pending time at or below the operator's low
// watermark. It starts at the scheduling cursor, so it visits only the
// times this watermark closes. Caller holds rt.mu.
func (rt *opRuntime) scheduleCompleteLocked() {
	low, ok := rt.lowWatermarkLocked()
	if !ok {
		return
	}
	for ; rt.sched < rt.times.Len(); rt.sched++ {
		tw := *rt.times.At(rt.sched)
		if tw.ts.L > low.L && !low.IsTop() {
			break
		}
		if tw.scheduled || tw.done {
			continue
		}
		tw.scheduled = true
		ts := tw.ts
		run := func() { rt.runWatermark(ts) }
		if rt.wrap != nil {
			run = rt.wrap(run)
		}
		rt.submit(lattice.KindWatermark, ts, rt.deadlineLocked(tw), run)
	}
}

// runWatermark executes the watermark callback for a completed timestamp,
// then releases the output watermark and commits state (§6.2).
func (rt *opRuntime) runWatermark(ts timestamp.Timestamp) {
	if rt.retired.Load() {
		return
	}
	l := ts.L
	rt.mu.Lock()
	_, tw := rt.findLocked(l)
	if tw == nil || tw.done {
		rt.mu.Unlock()
		return
	}
	if tw.handledAbort {
		// An Abort DEH already produced output and state for this time.
		tw.done = true
		rt.gcLocked(l)
		rt.mu.Unlock()
		return
	}
	ctx := rt.contextLocked(tw, nil)
	rt.mu.Unlock()

	if rt.spec.OnWatermark != nil {
		rt.spec.OnWatermark(ctx)
	}

	rt.mu.Lock()
	aborted := tw.gate != nil && tw.gate.Aborted()
	// Materialize the view if no callback did, so time-versioning advances
	// even for timestamps that left the state untouched.
	view := rt.viewLocked(tw)
	tw.done = true
	rt.committed++
	rt.gcLocked(l)
	rt.mu.Unlock()

	if aborted {
		// The DEH (Abort policy) released output and committed state.
		rt.st.Discard(ts, view)
		return
	}
	if rt.spec.AutoWatermark {
		for _, o := range rt.outs {
			// Errors here indicate the handler already closed or advanced
			// the stream; the stream invariants make that visible.
			_ = o.Send(message.Watermark(ts))
		}
	}
	rt.st.Commit(ts, view)
	rt.w.countWatermarkBatch()
}

// onMiss orchestrates a deadline exception handler (§5.4).
func (rt *opRuntime) onMiss(spec operator.TimestampDeadlineSpec, miss deadline.Miss) {
	rt.w.countMiss()
	if spec.Handler == nil {
		return
	}
	rt.w.wg.Add(1)
	go func() {
		defer rt.w.wg.Done()
		started := rt.w.clock.Now()

		rt.mu.Lock()
		tw := rt.timeLocked(miss.Timestamp)
		var dirty any
		if tw.viewMade {
			dirty = tw.view
		}
		if miss.Policy == deadline.Abort {
			tw.handledAbort = true
			if tw.gate != nil {
				tw.gate.Abort()
			}
		}
		rt.mu.Unlock()

		committed, _ := rt.st.Committed(prevTime(miss.Timestamp))
		hctx := operator.NewHandlerContext(rt.spec.Name, miss, committed, dirty, rt.rawOutputs())
		spec.Handler(hctx)

		if miss.Policy == deadline.Abort && dirty != nil {
			// The handler amended the dirty state; publish it.
			rt.st.Commit(miss.Timestamp, dirty)
		}
		rt.w.recordHandler(started.Sub(miss.ExpiredAt))
	}()
}

// insertWatermark simulates the arrival of missing input on input stream i
// when a frequency deadline expires (§5.1): the next logical time's
// watermark is inserted with the lowest accuracy coordinate.
func (rt *opRuntime) insertWatermark(fs operator.FrequencyDeadlineSpec, last timestamp.Timestamp) {
	next := timestamp.New(last.L + 1)
	rt.w.countInserted()
	if fs.OnInsert != nil {
		fs.OnInsert(next)
	}
	rt.onReceive(fs.Input, message.Watermark(next))
}

// contextLocked builds the callback Context for tw; ls is the lease on the
// callback's payload, nil when the worker does not own it. Caller holds
// rt.mu.
func (rt *opRuntime) contextLocked(tw *timeWork, ls *lease) *operator.Context {
	view := rt.viewLocked(tw)
	var rel time.Duration
	var abs time.Time
	hasDL := false
	if len(rt.ttSpecs) > 0 {
		rel = rt.ttSpecs[0].Value.For(tw.ts)
		if tw.hasArrival {
			abs = tw.firstArrival.Add(rel)
		} else {
			abs = rt.w.clock.Now().Add(rel)
		}
		hasDL = true
	}
	var payload interface{ Retain() func() } // a nil *lease must stay a nil interface
	if ls != nil {
		payload = ls
	}
	return operator.NewContext(rt.spec.Name, tw.ts, view, rt.outs, rel, abs, hasDL, tw.gate, payload)
}

// viewLocked lazily creates the shared working view for a timestamp.
func (rt *opRuntime) viewLocked(tw *timeWork) any {
	if !tw.viewMade {
		tw.view = rt.st.View(tw.ts)
		tw.viewMade = true
	}
	return tw.view
}

// findLocked returns the index of logical time l in the window and its work
// record, or the index l would be inserted at and nil.
func (rt *opRuntime) findLocked(l uint64) (int, *timeWork) {
	i := rt.times.Search(func(tw **timeWork) bool { return (*tw).ts.L < l })
	if i < rt.times.Len() && (*rt.times.At(i)).ts.L == l {
		return i, *rt.times.At(i)
	}
	return i, nil
}

// timeLocked returns (creating if needed) the work record for t's logical
// time. Times nearly always arrive in order, so the insert is an append.
func (rt *opRuntime) timeLocked(t timestamp.Timestamp) *timeWork {
	i, tw := rt.findLocked(t.L)
	if tw != nil {
		return tw
	}
	tw = &timeWork{ts: timestamp.New(t.L), gate: operator.NewGate()}
	rt.times.Insert(i, tw)
	if i < rt.sched {
		rt.sched = i
	}
	return tw
}

func (rt *opRuntime) noteArrivalLocked(tw *timeWork) {
	if !tw.hasArrival {
		tw.firstArrival = rt.w.clock.Now()
		tw.hasArrival = true
	}
}

// lowWatermarkLocked computes the minimum watermark across input streams.
func (rt *opRuntime) lowWatermarkLocked() (timestamp.Timestamp, bool) {
	if len(rt.inWM) == 0 {
		return timestamp.Timestamp{}, false
	}
	low := timestamp.Top()
	for _, ws := range rt.inWM {
		if !ws.have {
			return timestamp.Timestamp{}, false
		}
		low = timestamp.Min(low, ws.ts)
	}
	return low, true
}

// gcLocked pops the finished work records more than the history depth
// behind l from the head of the window, and trims the trackers, deadline
// sources and state at the same cut.
func (rt *opRuntime) gcLocked(l uint64) {
	h := rt.w.history
	if l < h {
		return
	}
	cut := l - h
	n := 0
	for n < rt.times.Len() {
		if tw := *rt.times.At(n); tw.ts.L >= cut || !tw.done {
			break
		}
		n++
	}
	rt.times.DropFront(n)
	rt.sched = max(rt.sched-n, 0)
	for _, tr := range rt.ttTrackers {
		tr.GCBelow(cut)
	}
	for _, d := range rt.dyn {
		d.GCBelow(cut)
	}
	rt.st.GC(timestamp.New(cut))
}

// rawOutputs returns outputs without abort gating, for handlers.
func (rt *opRuntime) rawOutputs() []operator.Output {
	outs := make([]operator.Output, len(rt.outs))
	for i, o := range rt.outs {
		g := o.(*gatedOutput)
		outs[i] = &rawOutput{rt: rt, b: g.b, index: g.index}
	}
	return outs
}

func (rt *opRuntime) info() OpInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	low, have := rt.lowWatermarkLocked()
	pending := 0
	for i := 0; i < rt.times.Len(); i++ {
		if !(*rt.times.At(i)).done {
			pending++
		}
	}
	return OpInfo{
		Name:           rt.spec.Name,
		LowWatermark:   low,
		HasWatermark:   have,
		PendingTimes:   pending,
		CommittedTimes: rt.committed,
	}
}

// gatedOutput feeds deadline end conditions and respects abort gating via
// Context; the Context itself checks the gate, so this type only needs the
// DEC observation hook.
type gatedOutput struct {
	rt    *opRuntime
	b     *stream.Broadcaster
	index int
}

// Send implements operator.Output. A payload sent onward is pinned: the
// worker never recycles a buffer that now travels downstream.
func (o *gatedOutput) Send(m message.Message) error {
	o.rt.w.leases.pin(m.Payload)
	if err := o.b.Send(m); err != nil {
		return err
	}
	o.rt.observeSend(o.index, m)
	return nil
}

// StreamID implements operator.Output.
func (o *gatedOutput) StreamID() stream.ID { return o.b.ID() }

// rawOutput is the handler-facing output: identical delivery, identical DEC
// observation, no gating (handlers must always be able to release output).
type rawOutput struct {
	rt    *opRuntime
	b     *stream.Broadcaster
	index int
}

// Send implements operator.Output, pinning the payload like gatedOutput.
func (o *rawOutput) Send(m message.Message) error {
	o.rt.w.leases.pin(m.Payload)
	if err := o.b.Send(m); err != nil {
		return err
	}
	o.rt.observeSend(o.index, m)
	return nil
}

// StreamID implements operator.Output.
func (o *rawOutput) StreamID() stream.ID { return o.b.ID() }

// observeSend feeds the DEC of every timestamp deadline registered on the
// sending output.
func (rt *opRuntime) observeSend(output int, m message.Message) {
	for i, tr := range rt.ttTrackers {
		spec := rt.ttSpecs[i]
		if spec.Output == operator.AllOutputs || spec.Output == output {
			tr.ObserveSend(m.Timestamp, m.IsWatermark())
		}
	}
}

// prevTime returns a timestamp strictly below t's logical time for
// committed-state lookups (the DEH receives the state for t' < t).
func prevTime(t timestamp.Timestamp) timestamp.Timestamp {
	if t.L == 0 {
		return timestamp.Bottom()
	}
	return timestamp.New(t.L - 1)
}

// --- worker counters ---

func (w *Worker) countDelivered() { w.delivered.Add(1) }

func (w *Worker) countStale() { w.stale.Add(1) }

func (w *Worker) countWatermarkBatch() { w.wmBatches.Add(1) }

func (w *Worker) countMiss() { w.misses.Add(1) }

func (w *Worker) countInserted() { w.insertedWMs.Add(1) }

func (w *Worker) recordHandler(delay time.Duration) {
	w.handlerRuns.Add(1)
	w.handlerMu.Lock()
	w.handlerDelays = append(w.handlerDelays, delay)
	w.handlerMu.Unlock()
}
