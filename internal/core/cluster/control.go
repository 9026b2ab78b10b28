// Resident control plane: heartbeat-driven failure detection on the leader
// and reschedule application on the nodes. See the package comment for the
// protocol overview.
package cluster

import (
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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

var eventNames = [...]string{"failure-detected", "rescheduled", "recovered", "cluster-lost", "joined",
	"drain-started", "drained", "migrated", "tenant-admitted", "scale-up", "scale-down"}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return "unknown"
	}
	return eventNames[k]
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
	if l.events == nil {
		if l.evDepth <= 0 {
			l.evDepth = defaultEventDepth
		}
		l.events = newRing[Event](l.evDepth)
	}
	l.events.add(e)
}

// Events returns a copy of the leader's event log: the most recent entries
// up to the configured history depth (WithEventHistory), oldest first.
func (l *Leader) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.snapshot()
}

// readSession drains one worker's control connection after start:
// heartbeats refresh the liveness clock and stash the worker's lazy
// checkpoints; acks advance the worker's applied epoch. It closes the
// connection once the worker hangs up (or a failover closed it first).
func (l *Leader) readSession(s *session) {
	defer s.conn.Close()
	for {
		var cm ctrlMsg
		if err := s.dec.Decode(&cm); err != nil {
			return
		}
		l.mu.Lock()
		forgotten := l.sessions[s.name] != s
		l.mu.Unlock()
		if forgotten {
			// A drained donor, or a namesake has rejoined since: read on
			// until it hangs up, as closing a connection with unread bytes
			// resets it and may lose the drainDoneMsg still queued.
			continue
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
			// Feed the transaction in flight; an ack for any other epoch
			// is stale.
			l.mu.Lock()
			if l.acks != nil && m.Epoch == l.ackEpoch {
				select {
				case l.acks <- m.Name:
				default:
				}
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
		// Look under reconfigMu, one worker at a time: a transaction that
		// held it meanwhile may have failed a silent worker already, and a
		// namesake may have rejoined since.
		l.reconfigMu.Lock()
		for {
			l.mu.Lock()
			var c *change
			w := l.staleLocked()
			if w != "" {
				c = l.failChangeLocked(w)
			}
			l.mu.Unlock()
			if w == "" {
				break
			}
			_ = l.reconfigure(c)
		}
		l.reconfigMu.Unlock()
		l.autoscaleTick()
	}
}

// staleLocked returns the first live worker, by name, silent for longer
// than failAfter, or "". A draining worker has stopped being schedulable;
// its drain completes (or times out) under reconfigMu, and declaring it
// dead mid-handoff would race the drain's own reschedule. Caller holds l.mu.
func (l *Leader) staleLocked() string {
	now := time.Now()
	stale := ""
	for w, up := range l.alive {
		if up && !l.draining[w] && now.Sub(l.lastBeat[w]) > l.failAfter && (stale == "" || w < stale) {
			stale = w
		}
	}
	return stale
}

// failChangeLocked declares w failed — what heartbeat silence and a missed
// ack both mean — closes its control connection and returns the change
// that re-places its operators, or nil when w is already forgotten or
// nobody is left. Caller holds l.mu.
func (l *Leader) failChangeLocked(w string) *change {
	s, known := l.sessions[w]
	if !known {
		return nil
	}
	s.conn.Close()
	l.alive[w] = false
	ev := Event{Kind: EventFailureDetected, Worker: w, At: time.Now(), Epoch: l.sched.Epoch + 1}
	l.pushEventLocked(ev)
	c := l.leaveLocked(w, EventRecovered)
	if c == nil {
		ev.Kind, ev.At = EventClusterLost, time.Now()
		l.pushEventLocked(ev)
		l.forgetLocked(w)
	}
	return c
}

// leaveLocked removes w from the members and returns the change that
// re-places its operators onto the candidates, or nil when there are none.
func (l *Leader) leaveLocked(w string, event EventKind) *change {
	l.members = removeMember(l.members, w)
	cands := candidates(l.members, l.alive, l.draining)
	if len(cands) == 0 {
		return nil
	}
	assign := ReassignTopo(l.gm, l.assign, w, cands, l.scoresLocked(), l.hostsLocked())
	return &change{assign: assign, gone: w, event: event, worker: w}
}

// forgetLocked drops every record of w, so a failed, laggard or drained
// worker may rejoin under its name. Caller holds l.mu.
func (l *Leader) forgetLocked(w string) {
	delete(l.sessions, w)
	delete(l.alive, w)
	delete(l.draining, w)
	delete(l.drainWait, w)
	delete(l.lastBeat, w)
	delete(l.checkpoints, w)
	delete(l.frontiers, w)
	delete(l.congestion, w)
	delete(l.missBase, w)
	delete(l.missDelta, w)
	delete(l.opMissBase, w)
}

// candidates lists the live members that may take operators: the
// non-draining ones, or every live one when all are draining.
func candidates(members []string, alive, draining map[string]bool) []string {
	var live, out []string
	for _, w := range members {
		if alive[w] {
			live = append(live, w)
			if !draining[w] {
				out = append(out, w)
			}
		}
	}
	if len(out) == 0 {
		return live
	}
	return out
}

// moved returns a copy of assign with ops placed on to.
func moved(assign map[string]string, to string, ops ...string) map[string]string {
	out := make(map[string]string, len(assign)+len(ops))
	for op, w := range assign {
		out[op] = w
	}
	for _, op := range ops {
		out[op] = to
	}
	return out
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

// change is one reconfiguration: the assignment to install, the worker
// leaving the schedule with it (dead, laggard or drained; "" if none), the
// event its released barrier fires and the worker it names, for an
// admission the joiner, and the worker the change exists to bring in or
// load (the joiner, a migration's destination; "" if none): if that one is
// declared a laggard, the change is lost.
type change struct {
	assign map[string]string
	gone   string
	event  EventKind
	worker string
	join   *session
	target string
}

// view is the leader state a change is planned against.
type view struct {
	g                    graph.View
	assign               map[string]string // in force
	members              []string          // sorted
	alive, draining      map[string]bool
	adverts              map[string]registerMsg
	tenants              []string
	ingest               map[stream.ID]string
	extract              map[stream.ID][]string
	frontiers            map[string]map[stream.ID]uint64
	checkpoints          map[string]map[string]state.Checkpoint
	scores               map[string]int64
	heartbeat, failAfter time.Duration
	epoch                uint64 // in force
}

// reconfig is a planned change: schedule, re-homed ingest and extraction
// points, orphans' checkpoints and cuts, and the barrier's recipients.
type reconfig struct {
	sched      Schedule
	ingest     map[stream.ID]string
	extract    map[stream.ID][]string
	cps        map[string]state.Checkpoint
	cuts       map[string]uint64
	recipients []string
}

// plan is the one planner behind join, drain, migrate, submit and failover.
// An operator whose worker changes is an orphan: it ships the checkpoint its
// old worker last reported and restores at the consistent cut. A departing
// worker's ingest and extraction points leave with it.
func plan(c change, v view) reconfig {
	rc := reconfig{ingest: v.ingest, extract: v.extract, cps: make(map[string]state.Checkpoint)}
	if c.gone != "" {
		rc.ingest = make(map[stream.ID]string, len(v.ingest))
		for id, w := range v.ingest {
			if w == c.gone {
				w = candidates(v.members, v.alive, v.draining)[0]
			}
			rc.ingest[id] = w
		}
		rc.extract = make(map[stream.ID][]string, len(v.extract))
		for id, ws := range v.extract {
			rc.extract[id] = removeMember(append([]string(nil), ws...), c.gone)
		}
	}
	orphans := make(map[string]bool)
	for op, from := range v.assign {
		if to, ok := c.assign[op]; ok && to != from {
			orphans[op] = true
			if cp, ok := v.checkpoints[from][op]; ok {
				rc.cps[op] = cp
			}
		}
	}
	rc.cuts = restoreCuts(v.g, v.assign, orphans, c.gone, v.frontiers, rc.cps, rc.extract)
	rc.sched = v.schedule(c.assign, rc.ingest, rc.extract, v.epoch+1)
	for _, w := range v.members {
		if v.alive[w] {
			rc.recipients = append(rc.recipients, w)
		}
	}
	return rc
}

// restoreCuts computes, per orphan, the newest watermark it may restore at
// without skipping an output some consumer still needs: the minimum over
// its outputs of (a) every remaining reader's reported frontier — anything
// newer may have died in flight — and (b) every co-orphaned reader's own
// predicted restore point, since a restored consumer re-processes past its
// fence; (b) makes it a fixpoint, which converges as cuts only decrease. A
// reader with no frontier yet contributes zero (conservative, never
// unsafe); an orphan with no readers is unconstrained. An extraction point
// is a reader too, its tracked frontier standing in for a watermark. The
// departed worker gone ("" for a migration, whose donor keeps reporting)
// constrains nothing.
func restoreCuts(g graph.View, assign map[string]string, orphans map[string]bool, gone string,
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

// reconfigure drives c (nil is a no-op), then fails over every laggard it
// met the same way until a barrier is released; the caller holds
// reconfigMu. Each failover epoch carries the changes it superseded, and at
// the release every change's event fires, newest first. It returns nil only
// when c is in force under a released barrier; else the error names the
// laggards: nobody was left to release one, or c's target was a laggard.
func (l *Leader) reconfigure(c *change) error {
	if c == nil {
		return nil
	}
	target := c.target
	var done []change
	var late, failed []string
	released := false
	for c != nil {
		lagged, err := l.drive(*c)
		if err != nil {
			return err
		}
		done = append([]change{*c}, done...)
		released = len(lagged) == 0
		late = append(late, lagged...)
		failed = append(failed, lagged...)
		l.mu.Lock()
		for c = nil; c == nil && len(failed) > 0; failed = failed[1:] {
			if _, known := l.sessions[failed[0]]; known {
				if c = l.failChangeLocked(failed[0]); c == nil {
					released = false // nobody left
				}
			}
		}
		l.mu.Unlock()
	}
	if released {
		l.mu.Lock()
		for _, d := range done {
			if !slices.Contains(late, d.target) {
				l.pushEventLocked(Event{Kind: d.event, Worker: d.worker, At: time.Now(), Epoch: l.sched.Epoch})
			}
		}
		l.mu.Unlock()
	}
	if !released || slices.Contains(late, target) {
		return fmt.Errorf("cluster: %s declared failed: unreachable or no ack within %v", strings.Join(late, ", "), 4*l.failAfter)
	}
	return nil
}

// drive plans c, commits it and runs its barrier: bump the epoch, send the
// rescheduleMsg to each recipient, collect acks from readSession under one
// 4×failAfter timer, start a joiner and send the replayMsg. A recipient
// whose send fails or whose ack misses the timer is a laggard; with any,
// the barrier stays shut and drive returns them — the failover that follows
// supersedes this epoch and replays for it.
func (l *Leader) drive(c change) ([]string, error) {
	l.mu.Lock()
	rc := plan(c, l.viewLocked())
	epoch := rc.sched.Epoch
	l.assign, l.sched, l.ingest, l.extract = c.assign, rc.sched, rc.ingest, rc.extract
	// Shipped checkpoints follow their operators until the new workers'
	// own heartbeats supersede them.
	for op, cp := range rc.cps {
		w := c.assign[op]
		l.checkpoints[w] = mergeCheckpoints(l.checkpoints[w], map[string]state.Checkpoint{op: cp})
	}
	if c.gone != "" && !l.alive[c.gone] {
		l.forgetLocked(c.gone) // a drained donor stays until drainDoneMsg
	}
	sessions := make(map[string]*session, len(rc.recipients))
	for _, w := range rc.recipients {
		sessions[w] = l.sessions[w]
	}
	acks := make(chan string, len(sessions))
	l.acks, l.ackEpoch = acks, epoch
	l.pushEventLocked(Event{Kind: EventRescheduled, Worker: c.worker, At: time.Now(), Epoch: epoch})
	l.mu.Unlock()

	if c.join != nil && l.handshake(c.join, rc.sched) != nil {
		return []string{c.join.name}, nil
	}
	var late []string
	waiting := make(map[string]bool, len(sessions))
	rm := ctrlMsg{M: rescheduleMsg{Dead: c.gone, Schedule: rc.sched, Checkpoints: rc.cps, RestoreAt: rc.cuts}}
	for w, s := range sessions {
		if s.send(rm) != nil {
			late = append(late, w)
		} else {
			waiting[w] = true
		}
	}
	timer := time.NewTimer(4 * l.failAfter)
	defer timer.Stop()
	for len(waiting) > 0 {
		select {
		case w := <-acks:
			delete(waiting, w)
		case <-timer.C:
			for w := range waiting {
				late = append(late, w)
			}
			waiting = nil
		case <-l.quit:
			return nil, fmt.Errorf("cluster: epoch %d: leader stopping", epoch)
		}
	}
	if c.join != nil && l.start(c.join) != nil {
		late = append(late, c.join.name)
	}
	if len(late) == 0 {
		// Barrier release: every recipient has adopted and fenced its
		// share, so producers can replay retained windows without racing
		// a not-yet-subscribed consumer.
		for w, s := range sessions {
			if s.send(ctrlMsg{M: replayMsg{Epoch: epoch}}) != nil {
				late = append(late, w)
			}
		}
	}
	sort.Strings(late)
	return late, nil
}

// replayDepth bounds how many recent messages per stream a node retains
// for re-delivery to a reassigned consumer. The receiver's restored
// watermark stale-drops anything already applied, so replaying too much is
// merely redundant, never incorrect.
const replayDepth = 512

// ring is a fixed-depth ring of the most recent values, in insertion
// order: a stream's retained messages (data and watermarks, in send order)
// or the leader's event log.
type ring[T any] struct {
	buf      []T
	start, n int
}

func newRing[T any](depth int) *ring[T] {
	return &ring[T]{buf: make([]T, depth)}
}

func (r *ring[T]) add(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
}

// snapshot copies the retained values out, oldest first; nil for a nil ring.
func (r *ring[T]) snapshot() []T {
	if r == nil {
		return nil
	}
	out := make([]T, r.n)
	for i := range out {
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
	r.Unreached = n.unreached.Load()
	if n.bgroup != nil {
		r.RelayRingSpills = n.bgroup.Spills()
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
// The ring gets one attempt (its listener either exists or it does not —
// retrying a broken ring only delays repair), TCP the given attempts of
// comm's exponential backoff, riding over peers mid-recovery.
func (n *Node) dialPeer(sched Schedule, peer string, attempts int, base time.Duration) error {
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
			_ = n.dialPeer(sched, peer, n.dialAttempts, n.dialBase)
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
//  2. dial any peer the mesh lacks (exponential backoff; the ack waits up
//     to FailAfter for workers new to the schedule);
//  3. adopt orphaned operators assigned here, restoring their
//     time-versioned state from the shipped checkpoints (the restored
//     watermark fences out replayed duplicates) and replaying
//     locally-produced input windows inside the adoption window;
//  4. retarget forwarding: dropped consumers stop immediately, while
//     additions are deferred to the leader's replay barrier so the
//     retained window reaches the new consumer first, and
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
	oldRelay, oldPeers := n.schedule.PeerRelay, n.schedule.PeerAddrs
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

	// Re-dial missing peers, with backoff (the later name of a pair dials,
	// as in Join). A released barrier implies the mesh, as a frame sent to
	// a peer with no link is lost, so the ack waits for the dials to workers
	// new to the schedule — for at most FailAfter, so that an unreachable
	// joiner cannot make this node miss the 4×FailAfter ack bound. Those
	// dials, and the repairs of links to old members (one may be dead and
	// not yet detected), go on in the background.
	known := make(map[string]bool)
	for _, p := range n.Transport.Peers() {
		known[p] = true
	}
	fresh := 0
	dialed := make(chan struct{}, len(rm.Schedule.PeerAddrs))
	for peer := range rm.Schedule.PeerAddrs {
		if peer <= n.Name || known[peer] {
			continue
		}
		_, old := oldPeers[peer]
		if !old {
			fresh++
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.dialPeer(rm.Schedule, peer, n.dialAttempts, n.dialBase)
			if !old {
				dialed <- struct{}{}
			}
		}()
	}
	budget := time.After(rm.Schedule.FailAfter)
wait:
	for ; fresh > 0; fresh-- {
		select {
		case <-dialed:
		case <-budget:
			break wait
		}
	}

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
		forced := make(map[string]bool)
		if rm.Dead != "" {
			for host, relay := range oldRelay[uint64(id)] {
				if relay != rm.Dead {
					continue
				}
				for _, c := range consumers {
					if c != rm.Dead && rm.Schedule.PeerHosts[c] == host {
						forced[c] = true
					}
				}
			}
		}
		fs.mu.Lock()
		keep := fs.consumers[:0]
		prev := make(map[string]bool, len(fs.consumers))
		for _, c := range fs.consumers {
			prev[c] = true
			if next[c] && !forced[c] {
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
		var parked []string
		for _, c := range consumers {
			if !prev[c] || forced[c] {
				parked = append(parked, c)
			}
		}
		if len(parked) > 0 {
			pend = append(pend, pendingReplay{id: id, consumers: consumers, parked: parked})
		}
	}
	n.mu.Lock()
	n.pending, n.pendingEpoch = pend, rm.Schedule.Epoch
	n.mu.Unlock()

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
		if fs.ring != nil {
			// The window rides the parked consumers' share of the new
			// delivery plan — relay envelope, broadcast ring or pairwise
			// link, whichever the live frames after it will take — so one
			// FIFO path orders it ahead of them; it finishes under fs.mu for
			// the same reason. Replayed frames carry no deadline; an empty
			// hint still lets the coalescer batch the window.
			relays, local := fs.plan(sched, n.Name, p.id, p.parked)
			for _, m := range fs.ring.snapshot() {
				n.forward(relays, local, fs.broadcast, p.id, m, comm.FlushHint{})
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
