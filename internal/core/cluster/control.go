// Resident control plane: heartbeat-driven failure detection on the leader
// and reschedule application on the nodes. See the package comment for the
// protocol overview.
package cluster

import (
	"encoding/gob"
	"math"
	"sort"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// EventKind enumerates the leader's failover log entries.
type EventKind int

const (
	// EventFailureDetected marks the instant heartbeat silence crossed
	// FailAfter for a worker.
	EventFailureDetected EventKind = iota
	// EventRescheduled marks the reschedule delta being pushed.
	EventRescheduled
	// EventRecovered marks all surviving workers acknowledging the delta.
	EventRecovered
	// EventClusterLost marks a failure with no survivors to fail over to.
	EventClusterLost
	// EventJoined marks a worker admitted into a running cluster.
	EventJoined
	// EventDrainStarted marks the leader freezing a live donor's operators.
	EventDrainStarted
	// EventDrained marks a drain's handoff completing (replay barrier
	// released, donor told it may exit).
	EventDrained
	// EventMigrated marks a live operator migration (scale-up rebalance or
	// explicit Migrate) completing.
	EventMigrated
	// EventTenantAdmitted marks Submit accepting a tenant pipeline.
	EventTenantAdmitted
	// EventScaleUp / EventScaleDown mark autoscale decisions being acted
	// on (the spawn or retire that follows may still fail; the
	// join/drain events tell the rest of the story).
	EventScaleUp
	EventScaleDown
)

func (k EventKind) String() string {
	switch k {
	case EventFailureDetected:
		return "failure-detected"
	case EventRescheduled:
		return "rescheduled"
	case EventRecovered:
		return "recovered"
	case EventClusterLost:
		return "cluster-lost"
	case EventJoined:
		return "joined"
	case EventDrainStarted:
		return "drain-started"
	case EventDrained:
		return "drained"
	case EventMigrated:
		return "migrated"
	case EventTenantAdmitted:
		return "tenant-admitted"
	case EventScaleUp:
		return "scale-up"
	case EventScaleDown:
		return "scale-down"
	}
	return "unknown"
}

// Event is one entry in the leader's failover log.
type Event struct {
	Kind EventKind
	// Worker is the dead worker the event concerns.
	Worker string
	// At is the wall clock of the event.
	At time.Time
	// Epoch is the schedule epoch the event belongs to (the new epoch for
	// reschedule/recovery events).
	Epoch uint64
}

// pushEventLocked appends to the bounded event ring, evicting the oldest
// entry once the configured depth is reached. Caller holds l.mu.
func (l *Leader) pushEventLocked(e Event) {
	if l.evDepth <= 0 {
		l.evDepth = defaultEventDepth
	}
	if l.events == nil {
		l.events = make([]Event, l.evDepth)
	}
	if l.evCount < l.evDepth {
		l.events[(l.evStart+l.evCount)%l.evDepth] = e
		l.evCount++
		return
	}
	l.events[l.evStart] = e
	l.evStart = (l.evStart + 1) % l.evDepth
}

// Events returns a copy of the leader's event log: the most recent entries
// up to the configured history depth (WithEventHistory), oldest first.
func (l *Leader) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.evCount)
	for i := 0; i < l.evCount; i++ {
		out[i] = l.events[(l.evStart+i)%l.evDepth]
	}
	return out
}

// readSession drains one worker's control connection after start:
// heartbeats refresh the liveness clock and stash the worker's lazy
// checkpoints; acks advance the worker's applied epoch.
func (l *Leader) readSession(s *session) {
	for {
		var cm ctrlMsg
		if err := s.dec.Decode(&cm); err != nil {
			return
		}
		switch m := cm.M.(type) {
		case heartbeatMsg:
			var ack checkpointAckMsg
			l.mu.Lock()
			l.lastBeat[m.Name] = time.Now()
			if len(m.Checkpoints) > 0 {
				// Checkpoints arrive as deltas against the last acked
				// version watermark: splice them onto the retained
				// snapshots and ack the new watermark so the worker can
				// trim the next heartbeat further.
				merged := mergeCheckpoints(l.checkpoints[m.Name], m.Checkpoints)
				l.checkpoints[m.Name] = merged
				ack.Acked = make(map[string]uint64, len(merged))
				for op, cp := range merged {
					ack.Acked[op] = cp.L
				}
			}
			if m.Frontiers != nil {
				l.frontiers[m.Name] = m.Frontiers
			}
			// Difference the cumulative urgency-miss counter against the
			// previous heartbeat so placement scores react to *recent*
			// pressure, not a worker's whole history.
			l.missDelta[m.Name] = m.Congestion.UrgencyMisses - l.missBase[m.Name]
			l.missBase[m.Name] = m.Congestion.UrgencyMisses
			l.congestion[m.Name] = m.Congestion
			// Per-operator miss deltas accumulate into per-tenant totals.
			// An operator that migrated here restarts its counter at zero;
			// the cum < base guard treats that as a reset, not underflow.
			if len(m.OpMisses) > 0 {
				base := l.opMissBase[m.Name]
				if base == nil {
					base = make(map[string]uint64)
					l.opMissBase[m.Name] = base
				}
				for op, cum := range m.OpMisses {
					d := cum - base[op]
					if cum < base[op] {
						d = cum
					}
					base[op] = cum
					if d > 0 {
						l.tenantMiss[l.tenantOf[op]] += d
					}
				}
			}
			l.mu.Unlock()
			if ack.Acked != nil {
				_ = s.send(ctrlMsg{M: ack})
			}
		case rescheduleAckMsg:
			l.mu.Lock()
			if m.Epoch > l.ackEpoch[m.Name] {
				l.ackEpoch[m.Name] = m.Epoch
			}
			l.mu.Unlock()
		case drainReadyMsg:
			// Route the donor's freeze-time snapshot to the drain or
			// migration waiting on it.
			l.mu.Lock()
			ch := l.drainWait[m.Name]
			l.mu.Unlock()
			if ch != nil {
				select {
				case ch <- m:
				default:
				}
			}
		}
	}
}

// monitor polls heartbeat ages and runs failover when one crosses
// FailAfter. Polling at a quarter of the fail window keeps worst-case
// detection latency at FailAfter + FailAfter/4 past the last heartbeat.
func (l *Leader) monitor() {
	tick := l.failAfter / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
		}
		now := time.Now()
		var dead []string
		l.mu.Lock()
		for w, up := range l.alive {
			// A draining worker has stopped being schedulable; its drain
			// completes (or times out) under reconfigMu — declaring it
			// dead mid-handoff would race the drain's own reschedule.
			if up && !l.draining[w] && now.Sub(l.lastBeat[w]) > l.failAfter {
				dead = append(dead, w)
			}
		}
		l.mu.Unlock()
		sort.Strings(dead)
		for _, d := range dead {
			l.failover(d)
		}
		l.autoscaleTick()
	}
}

// failover re-places a dead worker's operators onto the survivors and
// pushes the new schedule, shipping the dead worker's last known
// checkpoints so the adopters can restore state at the last consistent
// watermark.
func (l *Leader) failover(dead string) {
	l.reconfigMu.Lock()
	defer l.reconfigMu.Unlock()
	detected := time.Now()
	l.mu.Lock()
	if !l.alive[dead] {
		l.mu.Unlock()
		return
	}
	l.alive[dead] = false
	// A worker that died mid-drain is simply dead; the drain waiter times
	// out on its own.
	delete(l.draining, dead)
	l.members = removeMember(l.members, dead)
	var survivors []string
	for _, w := range l.members {
		if l.alive[w] {
			survivors = append(survivors, w)
		}
	}
	epoch := l.sched.Epoch + 1
	l.pushEventLocked(Event{Kind: EventFailureDetected, Worker: dead, At: detected, Epoch: epoch})
	if len(survivors) == 0 {
		l.pushEventLocked(Event{Kind: EventClusterLost, Worker: dead, At: time.Now(), Epoch: epoch})
		l.mu.Unlock()
		return
	}
	// Draining workers are mid-handoff: they must not receive new
	// orphans (their own operators are leaving). They still participate
	// in the protocol — routes, acks, replay — until their drain
	// completes. With nothing but draining survivors left, fall back to
	// using them rather than losing the cluster.
	candidates := make([]string, 0, len(survivors))
	for _, w := range survivors {
		if !l.draining[w] {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		candidates = survivors
	}

	// Congestion-fed re-placement: orphans avoid survivors whose latest
	// heartbeats show queue backlog or urgency misses, affinity
	// permitting; host adverts re-break score ties toward survivors whose
	// host carries a neighbor, so rescued edges come back as ring edges.
	assign := ReassignTopo(l.gm, l.assign, dead, candidates, l.scoresLocked(), l.hostsLocked())
	// Re-home ingest injection and extraction points that lived on the
	// dead worker so the routing table never names it.
	l.rehomeLocked(dead, candidates[0])
	// Only checkpoints for operators that actually lived on the dead
	// worker travel with the delta.
	cps := make(map[string]state.Checkpoint)
	for op, cp := range l.checkpoints[dead] {
		if l.assign[op] == dead {
			cps[op] = cp
		}
	}
	// The consistent restore cut: each orphan may only restore as far
	// forward as every consumer of its outputs has provably received —
	// anything newer the dead worker produced may have been lost in flight
	// and must be regenerated by re-processing past the cut.
	cuts := restoreCuts(l.gm, l.assign, dead, l.frontiers, cps, l.extract)
	sched := l.buildScheduleLocked(assign, epoch)
	l.assign, l.sched = assign, sched
	var sessions []*session
	for _, w := range survivors {
		if s, ok := l.sessions[w]; ok {
			sessions = append(sessions, s)
		}
	}
	l.pushEventLocked(Event{Kind: EventRescheduled, Worker: dead, At: time.Now(), Epoch: epoch})
	l.mu.Unlock()

	rm := rescheduleMsg{Dead: dead, Schedule: sched, Checkpoints: cps, RestoreAt: cuts}
	for _, s := range sessions {
		_ = s.send(ctrlMsg{M: rm})
	}
	if !l.awaitAcks(survivors, epoch) {
		return
	}
	// Barrier release: every survivor has adopted and fenced its share of
	// the orphans, so producers can replay retained windows without racing
	// a not-yet-subscribed consumer.
	for _, s := range sessions {
		_ = s.send(ctrlMsg{M: replayMsg{Epoch: epoch}})
	}
	l.mu.Lock()
	l.pushEventLocked(Event{Kind: EventRecovered, Worker: dead, At: time.Now(), Epoch: epoch})
	l.mu.Unlock()
}

// removeMember returns members without name, preserving order.
func removeMember(members []string, name string) []string {
	out := members[:0]
	for _, w := range members {
		if w != name {
			out = append(out, w)
		}
	}
	return out
}

// rehomeLocked moves ingest injection points off a departing worker and
// drops it from extraction lists. Caller holds l.mu.
func (l *Leader) rehomeLocked(gone, to string) {
	ingest := make(map[stream.ID]string, len(l.ingest))
	for id, w := range l.ingest {
		if w == gone {
			w = to
		}
		ingest[id] = w
	}
	extract := make(map[stream.ID][]string, len(l.extract))
	for id, ws := range l.extract {
		keep := make([]string, 0, len(ws))
		for _, w := range ws {
			if w != gone {
				keep = append(keep, w)
			}
		}
		extract[id] = keep
	}
	l.ingest, l.extract = ingest, extract
}

// restoreCuts computes, per orphaned operator, the newest watermark it may
// be restored at without skipping an output some consumer still needs: the
// minimum over its output streams of (a) every surviving reader's reported
// frontier on that stream — everything at or below a frontier has reached
// the reader, anything newer may have died in flight with the worker — and
// (b) every co-orphaned reader's own predicted restore point, since a
// restored consumer re-processes past its fence and needs those inputs
// regenerated. (b) makes this a fixpoint over the orphan set; it converges
// in at most one pass per orphan because cuts only decrease. A reader with
// no reported frontier yet contributes zero (restore at the oldest retained
// version — conservative, never unsafe: over-regenerated outputs are
// stale-dropped at consumer fences). Operators with no readers are
// unconstrained.
//
// extract lists the workers extracting each stream: a subscription-only
// extraction point is a reader too — it has no operator runtime, so its
// worker's reported frontier (tracked by the node's extraction tap) stands
// in for an input watermark. Without this an orphaned producer whose only
// consumer is an extraction point would restore unconstrained and skip
// outputs the application never received.
func restoreCuts(g graph.View, assign map[string]string, dead string,
	frontiers map[string]map[stream.ID]uint64, cps map[string]state.Checkpoint,
	extract map[stream.ID][]string) map[string]uint64 {
	orphans := make(map[string]bool)
	for op, w := range assign {
		if w == dead {
			orphans[op] = true
		}
	}
	return restoreCutsFor(g, assign, orphans, dead, frontiers, cps, extract)
}

// restoreCutsFor is restoreCuts generalized over an explicit orphan set:
// orphans lists the operators being re-placed, and gone names a worker
// whose frontier reports must be ignored (the dead worker in failover, ""
// for a live migration where the donor's retained operators keep reporting
// trustworthy frontiers). Failover passes orphans = everything assigned to
// the dead worker; a drain passes the donor's whole operator set; a
// partial migration passes just the moved operators, so retained readers
// on the donor constrain the cut like any other surviving consumer.
func restoreCutsFor(g graph.View, assign map[string]string, orphans map[string]bool, gone string,
	frontiers map[string]map[stream.ID]uint64, cps map[string]state.Checkpoint,
	extract map[stream.ID][]string) map[string]uint64 {
	readers := make(map[stream.ID][]string)
	outputs := make(map[string][]stream.ID)
	cuts := make(map[string]uint64)
	for _, spec := range g.Operators() {
		for _, in := range spec.Inputs {
			readers[in] = append(readers[in], spec.Name)
		}
		if orphans[spec.Name] {
			outputs[spec.Name] = spec.Outputs
			cuts[spec.Name] = math.MaxUint64
		}
	}
	// predicted restore point of an orphaned reader: what its checkpoint
	// will actually fence at for the current cut (possibly older than the
	// cut itself when no version lands exactly on it).
	fence := func(op string) uint64 {
		if cp, ok := cps[op]; ok {
			return cp.PickL(cuts[op])
		}
		return cuts[op]
	}
	for changed := true; changed; {
		changed = false
		for op, outs := range outputs {
			cut := cuts[op]
			for _, out := range outs {
				for _, r := range readers[out] {
					var c uint64
					if orphans[r] {
						c = fence(r)
					} else if assign[r] == gone && gone != "" {
						// A non-orphan reader on the departed worker no
						// longer exists; it cannot constrain the cut.
						continue
					} else {
						c = frontiers[assign[r]][out]
					}
					if c < cut {
						cut = c
					}
				}
				for _, w := range extract[out] {
					if w == gone && gone != "" {
						continue
					}
					if c := frontiers[w][out]; c < cut {
						cut = c
					}
				}
			}
			if cut < cuts[op] {
				cuts[op] = cut
				changed = true
			}
		}
	}
	return cuts
}

// awaitAcks waits until every survivor has acknowledged epoch (bounded by
// 4x the fail window so a wedged survivor cannot stall the monitor
// forever). A survivor that dies mid-recovery is excused — it gets its own
// failover pass.
func (l *Leader) awaitAcks(survivors []string, epoch uint64) bool {
	deadline := time.Now().Add(4 * l.failAfter)
	for time.Now().Before(deadline) {
		select {
		case <-l.quit:
			return false
		case <-time.After(time.Millisecond):
		}
		l.mu.Lock()
		acked := 0
		for _, w := range survivors {
			if !l.alive[w] || l.ackEpoch[w] >= epoch {
				acked++
			}
		}
		done := acked == len(survivors)
		l.mu.Unlock()
		if done {
			return true
		}
	}
	return false
}

// replayDepth bounds how many recent messages per stream a node retains
// for re-delivery to a reassigned consumer. The receiver's restored
// watermark stale-drops anything already applied, so replaying too much is
// merely redundant, never incorrect.
const replayDepth = 512

// replayRing is a fixed-size ring of a stream's most recent messages
// (data and watermarks, in send order).
type replayRing struct {
	buf   []message.Message
	start int
	n     int
}

func newReplayRing(depth int) *replayRing {
	return &replayRing{buf: make([]message.Message, depth)}
}

func (r *replayRing) add(m message.Message) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = m
		r.n++
		return
	}
	r.buf[r.start] = m
	r.start = (r.start + 1) % len(r.buf)
}

func (r *replayRing) snapshot() []message.Message {
	out := make([]message.Message, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// congestionReport snapshots the node's scheduler and data-plane pressure
// for the next heartbeat.
func (n *Node) congestionReport() CongestionReport {
	c := n.Worker.Congestion()
	r := CongestionReport{Ready: c.Ready, Pending: c.Pending, UrgencyMisses: c.UrgencyMisses}
	if n.Transport != nil {
		r.Peers = n.Transport.PeerCoalesceStats()
	}
	r.RelayRepublished = n.relayed.Load()
	if n.bgroup != nil {
		if sc, ok := n.bgroup.Sink().(comm.SpillCounter); ok {
			r.RelayRingSpills = sc.Spills()
		}
		r.RelayRingEvictions = n.bgroup.Evictions()
	}
	return r
}

// heartbeatLoop ships heartbeats (with the worker's current operator
// checkpoints) until the node stops or the leader goes away.
func (n *Node) heartbeatLoop(period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		seq++
		n.repairLinks()
		n.mu.Lock()
		acked := make(map[string]uint64, len(n.ckAcked))
		for op, a := range n.ckAcked {
			acked[op] = a
		}
		n.mu.Unlock()
		hb := heartbeatMsg{Name: n.Name, Seq: seq,
			Checkpoints: trimCheckpoints(n.Worker.Checkpoints(), acked),
			Frontiers:   n.Worker.Frontiers(),
			Congestion:  n.congestionReport(),
			OpMisses:    n.Worker.OpUrgencyMisses()}
		n.encMu.Lock()
		before := n.ctrlOut.n
		err := n.enc.Encode(ctrlMsg{M: hb}) //erdos:allow lockhold encMu exists to serialize writers on the single control stream
		size := n.ctrlOut.n - before
		n.encMu.Unlock()
		n.hbBytes.Store(size)
		if size > n.hbPeak.Load() {
			n.hbPeak.Store(size)
		}
		if err != nil {
			return
		}
	}
}

// shmTarget reports the "shm://" dial target for peer when a ring link is
// both possible (matching host adverts, peer published a ring rendezvous)
// and advisable (the peer's ring is not suspect after a sever).
func (n *Node) shmTarget(sched Schedule, peer string) (string, bool) {
	if n.hostID == "" || sched.PeerHosts[peer] != n.hostID || sched.PeerShm[peer] == "" {
		return "", false
	}
	n.mu.Lock()
	suspect := n.shmSuspect[peer]
	n.mu.Unlock()
	if suspect {
		return "", false
	}
	return "shm://" + sched.PeerShm[peer], true
}

// noteScheme records the scheme a live link to peer came up with — at
// dial time, not just at heartbeat ticks, so a link severed before its
// first tick is still recognized as a ring link by repairLinks.
func (n *Node) noteScheme(peer, scheme string) {
	n.mu.Lock()
	n.lastScheme[peer] = scheme
	n.mu.Unlock()
}

// dialPeer opens the data-plane link to peer per the schedule: the peer's
// shared-memory ring when both sides advertise the same host, TCP
// otherwise — and TCP as the fallback when the ring dial fails, so host
// locality can never make a cluster less available than plain TCP was.
func (n *Node) dialPeer(sched Schedule, peer string) error {
	if addr, ok := n.shmTarget(sched, peer); ok {
		if err := n.Transport.Dial(addr); err == nil {
			n.noteScheme(peer, "shm")
			return nil
		}
		n.mu.Lock()
		n.shmSuspect[peer] = true
		n.mu.Unlock()
	}
	err := n.Transport.Dial(sched.PeerAddrs[peer])
	if err == nil {
		n.noteScheme(peer, "tcp")
	}
	return err
}

// dialPeerBackoff is dialPeer for recovery paths: one ring attempt (the
// listener either exists or it does not — retrying a broken ring only
// delays repair), then TCP with comm's exponential backoff riding over
// peers that are themselves mid-recovery.
func (n *Node) dialPeerBackoff(sched Schedule, peer string, attempts int, base time.Duration) error {
	if addr, ok := n.shmTarget(sched, peer); ok {
		if err := n.Transport.Dial(addr); err == nil {
			n.noteScheme(peer, "shm")
			return nil
		}
		n.mu.Lock()
		n.shmSuspect[peer] = true
		n.mu.Unlock()
	}
	err := n.Transport.DialBackoff(sched.PeerAddrs[peer], attempts, base)
	if err == nil {
		n.noteScheme(peer, "tcp")
	}
	return err
}

// repairLinks runs every heartbeat tick: any scheduled peer missing from
// the live peer set is re-dialed, with the same dial-side ordering as Join
// so only one side of a severed pair reconnects. A peer whose last live
// link was a ring is marked shm-suspect first — whatever severed the ring
// (a torn-down mmap, a fault injection) would sever a fresh one too — so
// its repair dial goes straight to TCP. Dials run in goroutines bounded by
// the repairing set, one in flight per peer.
func (n *Node) repairLinks() {
	schemes := n.Transport.PeerSchemes()
	n.mu.Lock()
	sched := n.schedule
	for p, s := range schemes {
		n.lastScheme[p] = s
	}
	var dials []string
	for peer := range sched.PeerAddrs {
		if peer <= n.Name {
			continue
		}
		if _, up := schemes[peer]; up {
			continue
		}
		if n.lastScheme[peer] == "shm" {
			n.shmSuspect[peer] = true
		}
		delete(n.lastScheme, peer)
		if n.repairing[peer] {
			continue
		}
		n.repairing[peer] = true
		dials = append(dials, peer)
	}
	n.mu.Unlock()
	for _, peer := range dials {
		peer := peer
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.dialPeerBackoff(sched, peer, n.dialAttempts, n.dialBase)
			n.mu.Lock()
			delete(n.repairing, peer)
			n.mu.Unlock()
		}()
	}
}

// controlLoop applies leader pushes (reschedule deltas and replay-barrier
// releases) until the control connection drops.
func (n *Node) controlLoop(dec *gob.Decoder) {
	for {
		var cm ctrlMsg
		if err := dec.Decode(&cm); err != nil {
			return
		}
		switch m := cm.M.(type) {
		case rescheduleMsg:
			n.applyReschedule(m)
		case replayMsg:
			n.runReplay(m.Epoch)
		case checkpointAckMsg:
			n.mu.Lock()
			for op, a := range m.Acked {
				if a > n.ckAcked[op] {
					n.ckAcked[op] = a
				}
			}
			n.mu.Unlock()
		case drainMsg:
			// Freeze the named operators (nil = all) and answer with
			// their checkpoints plus current frontiers — the donor side
			// of a drain or migration. Release is synchronous and cheap
			// (flag + snapshot), so the leader's wait stays short.
			cps := n.Worker.Release(m.Ops)
			fr := n.Worker.Frontiers()
			n.encMu.Lock()
			_ = n.enc.Encode(ctrlMsg{M: drainReadyMsg{Name: n.Name, Checkpoints: cps, Frontiers: fr}}) //erdos:allow lockhold encMu exists to serialize writers on the single control stream
			n.encMu.Unlock()
		case drainDoneMsg:
			// Full drain complete: operators live elsewhere, replay
			// barrier released. Signal the application it may Close.
			n.drainedOnce.Do(func() { close(n.drained) })
		}
	}
}

// Drained reports a full drain's completion: the channel closes when the
// leader confirms every operator this worker hosted has been handed off
// and the replay barrier released, so Close loses nothing.
func (n *Node) Drained() <-chan struct{} { return n.drained }

// syncTenants extends the worker with any tenant graphs named by the
// schedule that this node has not seen yet. Resolution failures (no
// resolver, or the resolver returns nil) skip the tenant: this node
// cannot host it, and the leader's placement must keep its operators
// elsewhere.
func (n *Node) syncTenants(sched Schedule) {
	for _, t := range sched.Tenants {
		n.mu.Lock()
		known := n.tenantsKnown[t]
		n.mu.Unlock()
		if known {
			continue
		}
		var sub *graph.Graph
		if n.resolver != nil {
			sub = n.resolver(t)
		}
		if sub == nil {
			continue
		}
		if err := n.Worker.Extend(sub); err != nil {
			continue
		}
		n.mu.Lock()
		n.tenantsKnown[t] = true
		n.mu.Unlock()
	}
}

// applyReschedule is the survivor side of failover:
//
//  1. drop the dead peer's data-plane connection;
//  2. adopt orphaned operators assigned here, restoring their
//     time-versioned state from the shipped checkpoints (the restored
//     watermark fences out replayed duplicates) and replaying
//     locally-produced input windows inside the adoption window;
//  3. retarget forwarding: dropped consumers stop immediately, while
//     additions are deferred to the leader's replay barrier so the
//     retained window reaches the new consumer first;
//  4. re-dial any peer the mesh lost (exponential backoff), and
//  5. ack the epoch to the leader.
func (n *Node) applyReschedule(rm rescheduleMsg) {
	n.mu.Lock()
	if rm.Schedule.Epoch <= n.epoch {
		n.mu.Unlock()
		n.ack(rm.Schedule.Epoch)
		return
	}
	n.epoch = rm.Schedule.Epoch
	// A dead relay is a loss channel the consistent cut cannot see: frames
	// this node shipped to it may have died in its republish queue while
	// the co-host consumers' own links stayed healthy. Remember which of
	// our streams routed through the dead worker so the retained window is
	// force-replayed to the consumers it covered.
	oldRelay := n.schedule.PeerRelay
	n.schedule = rm.Schedule
	// Forget the leader's checkpoint acks: operators may arrive (or return)
	// with rewound state, so the next heartbeat ships full snapshots and
	// the ack watermark rebuilds from there. One oversized heartbeat per
	// reschedule is the price of never trimming against a stale ack.
	n.ckAcked = make(map[string]uint64)
	n.mu.Unlock()

	// Membership-change reschedules (join, drain, migrate, submit) carry
	// Dead == "": nothing to disconnect, and the schedule may name tenant
	// graphs this node has not materialized yet. A dead peer whose link
	// the read loop already dropped is the usual case, so an unknown-peer
	// error only means there was nothing left to cut.
	if rm.Dead != "" {
		_ = n.Transport.Disconnect(rm.Dead)
	}
	n.syncTenants(rm.Schedule)

	// Reconcile broadcast-ring subscriptions with the new routes: detach
	// from the dead producer's ring (its group died with it) and join any
	// ring a rescued fanout edge now runs through.
	n.syncBusReaders(rm.Schedule)

	// Consumer half of relay-failure recovery: if the dead worker relayed
	// streams to this host, the tail of what arrived here may sit partially
	// applied in open ticks — data landed, closing watermark died in the
	// relay's queue. Discard those open views now, before acking: the
	// producer parks us until the barrier and then force-replays the
	// retained window from our last closed tick, rebuilding the open ticks
	// from committed state instead of double-applying into dirty views.
	// Only operators all of whose inputs rode the dead relay rewind — an
	// unaffected input's open contributions have no replay to rebuild them.
	if rm.Dead != "" && n.hostID != "" {
		affected := make(map[stream.ID]bool)
		for s, hostRelay := range oldRelay {
			if hostRelay[n.hostID] == rm.Dead {
				affected[stream.ID(s)] = true
			}
		}
		if len(affected) > 0 {
			for _, spec := range n.Worker.View().Operators() {
				if !n.Worker.Has(spec.Name) || len(spec.Inputs) == 0 {
					continue
				}
				all := true
				for _, in := range spec.Inputs {
					if !affected[in] {
						all = false
						break
					}
				}
				if all {
					n.Worker.RewindOpen(spec.Name)
				}
			}
		}
	}

	// Adopt orphans assigned here. Inputs produced on this node have
	// their retained windows replayed atomically with the adoption: the
	// forwarding locks are held across the ring snapshot and the
	// operator's input subscription, so no live message can overtake the
	// replayed window.
	for _, spec := range n.Worker.View().Operators() {
		if rm.Schedule.Assignments[spec.Name] != n.Name || n.Worker.Has(spec.Name) {
			continue
		}
		var cp *state.Checkpoint
		if c, ok := rm.Checkpoints[spec.Name]; ok {
			c := c
			cp = &c
		}
		replay := make(map[stream.ID][]message.Message)
		var locked []*fwdState
		n.mu.Lock()
		local := make(map[stream.ID]*fwdState)
		for _, in := range spec.Inputs {
			if fs := n.fwd[in]; fs != nil {
				local[in] = fs
			}
		}
		n.mu.Unlock()
		for in, fs := range local {
			fs.mu.Lock()
			locked = append(locked, fs)
			if fs.ring != nil {
				replay[in] = fs.ring.snapshot()
			}
		}
		restoreAt := uint64(math.MaxUint64)
		if r, ok := rm.RestoreAt[spec.Name]; ok {
			restoreAt = r
		}
		_ = n.Worker.Adopt(spec.Name, cp, restoreAt, replay)
		for _, fs := range locked {
			fs.mu.Unlock()
		}
	}

	// Retarget forwarding. Streams newly produced here (adopted
	// operators' outputs) have no history and subscribe immediately;
	// existing streams shrink to the consumers they keep, with additions
	// parked until the barrier.
	routed := make(map[stream.ID]Route)
	for _, r := range rm.Schedule.Routes {
		if r.Producer == n.Name {
			routed[stream.ID(r.Stream)] = r
		}
		// Streams newly forwarded here (re-homed extraction points)
		// start frontier tracking now, before the replay barrier, so the
		// next heartbeat already constrains their producer's restore.
		for _, c := range r.Consumers {
			if c == n.Name {
				_ = n.Worker.TrackFrontier(stream.ID(r.Stream))
			}
		}
	}
	n.mu.Lock()
	for id := range n.fwd {
		if _, ok := routed[id]; !ok {
			routed[id] = Route{}
		}
	}
	n.mu.Unlock()
	var pend []pendingReplay
	for id, r := range routed {
		consumers := r.Consumers
		n.mu.Lock()
		fs := n.fwd[id]
		n.mu.Unlock()
		if fs == nil {
			_ = n.setForwarding(id, consumers, true, r.Broadcast)
			continue
		}
		next := make(map[string]bool, len(consumers))
		for _, c := range consumers {
			next[c] = true
		}
		// Consumers whose relay was the dead worker: their own links never
		// broke, but frames in the dead relay's republish queue are gone.
		// The retained window is force-replayed to them at the barrier;
		// their stale fence drops what they already processed.
		var forced []string
		if rm.Dead != "" {
			for host, relay := range oldRelay[uint64(id)] {
				if relay != rm.Dead {
					continue
				}
				for _, c := range consumers {
					if c != rm.Dead && rm.Schedule.PeerHosts[c] == host {
						forced = append(forced, c)
					}
				}
			}
		}
		inForced := make(map[string]bool, len(forced))
		for _, c := range forced {
			inForced[c] = true
		}
		fs.mu.Lock()
		keep := fs.consumers[:0]
		prev := make(map[string]bool, len(fs.consumers))
		for _, c := range fs.consumers {
			prev[c] = true
			if next[c] && !inForced[c] {
				keep = append(keep, c)
			}
		}
		// Replan against the new schedule: covers shrink to the kept set,
		// and every envelope from here on names the re-elected relays.
		// Forced consumers (their relay died mid-fanout) are parked out of
		// the live plan alongside additions: the dead relay lost a suffix
		// of their stream, so live frames must not resume until the barrier
		// replay has delivered the gap in order. The ring keeps retaining
		// everything forwarded meanwhile.
		fs.setPlanLocked(rm.Schedule, n.Name, id, keep)
		fs.broadcast = r.Broadcast
		fs.mu.Unlock()
		added := false
		for _, c := range consumers {
			if !prev[c] {
				added = true
				break
			}
		}
		if added || len(forced) > 0 {
			pend = append(pend, pendingReplay{id: id, consumers: consumers, forced: forced})
		}
	}
	n.mu.Lock()
	n.pending, n.pendingEpoch = pend, rm.Schedule.Epoch
	n.mu.Unlock()

	// Re-dial missing peers. The same ordering rule as Join avoids both
	// sides of a pair racing to reconnect; backoff rides over peers that
	// are themselves mid-recovery.
	known := make(map[string]bool)
	for _, p := range n.Transport.Peers() {
		known[p] = true
	}
	for peerName := range rm.Schedule.PeerAddrs {
		if peerName <= n.Name || known[peerName] {
			continue
		}
		peer := peerName
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.dialPeerBackoff(rm.Schedule, peer, n.dialAttempts, n.dialBase)
		}()
	}

	n.ack(rm.Schedule.Epoch)
}

// runReplay delivers the parked windows once the leader's barrier
// confirms every survivor is fenced and subscribed. Receivers restored at
// watermark L drop everything at or below L, so replaying the whole ring
// is exactly-once from the application's point of view.
func (n *Node) runReplay(epoch uint64) {
	n.mu.Lock()
	if epoch != n.pendingEpoch {
		n.mu.Unlock()
		return
	}
	pend := n.pending
	n.pending = nil
	sched := n.schedule
	n.mu.Unlock()
	for _, p := range pend {
		n.mu.Lock()
		fs := n.fwd[p.id]
		n.mu.Unlock()
		if fs == nil {
			continue
		}
		fs.mu.Lock()
		prev := make(map[string]bool, len(fs.consumers))
		for _, c := range fs.consumers {
			prev[c] = true
		}
		var added []string
		for _, c := range p.consumers {
			if !prev[c] {
				added = append(added, c)
			}
		}
		// Forced targets (survivors whose relay died mid-fanout) get the
		// window too, provided the new schedule still routes them here.
		// Their fence drops the prefix they already saw; only the suffix
		// that may have died in the relay's queue is genuinely new.
		inAdded := make(map[string]bool, len(added))
		for _, c := range added {
			inAdded[c] = true
		}
		targets := added
		for _, c := range p.forced {
			if prev[c] && !inAdded[c] {
				targets = append(targets, c)
			}
		}
		if fs.ring != nil && len(targets) > 0 {
			for _, m := range fs.ring.snapshot() {
				// Replayed frames carry no deadline; an empty hint still
				// lets the coalescer batch the retained window. Multiple
				// adopters share one encode per retained frame.
				// Replay must finish under fs.mu so newer frames cannot
				// overtake the retained window. Replay is deliberately
				// pairwise — no relay hop — since the point is to bypass
				// the channel that just died.
				sent, _ := n.Transport.MulticastTree(nil, nil, targets, nil, p.id, m, comm.FlushHint{})
				n.forwarded.Add(uint64(sent))
			}
		}
		fs.setPlanLocked(sched, n.Name, p.id, append([]string(nil), p.consumers...))
		fs.mu.Unlock()
	}
}

func (n *Node) ack(epoch uint64) {
	n.encMu.Lock()
	_ = n.enc.Encode(ctrlMsg{M: rescheduleAckMsg{Name: n.Name, Epoch: epoch}}) //erdos:allow lockhold encMu exists to serialize writers on the single control stream
	n.encMu.Unlock()
}
