// Elastic membership: the leader-side protocol for graceful join, planned
// drain, live migration, multi-tenant admission, and the autoscale loop
// that drives all of them from congestion reports.
//
// Every reconfiguration here is the one transaction failover runs (plan
// and reconfigure in control.go): restore cuts over the orphan set, the
// reschedule push, the ack barrier and the replay release, so elastic
// changes inherit failover's exactly-once guarantee at watermark
// granularity. The difference is only where checkpoints come from: a live
// donor freezes its operators and hands a fresh snapshot over
// (drainMsg/drainReadyMsg) instead of the leader falling back to the last
// heartbeat of a dead worker.
package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sort"
	"time"

	"github.com/erdos-go/erdos/internal/core/cluster/elastic"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// Default recovery-dial backoff (see WithDialBackoff).
const (
	defaultDialAttempts = 8
	defaultDialBase     = 5 * time.Millisecond
)

// joinHandshakeTimeout bounds the pre-start exchange with a joiner while
// admitJoin holds reconfigMu; a wedged joiner aborts its own admission
// instead of freezing drains and failovers behind the lock.
const joinHandshakeTimeout = 10 * time.Second

// viewLocked snapshots the leader state plan reads. The maps are shared,
// not copied: plan only reads them, under l.mu. Caller holds l.mu.
func (l *Leader) viewLocked() view {
	adverts := make(map[string]registerMsg, len(l.sessions))
	for w, s := range l.sessions {
		adverts[w] = s.reg
	}
	return view{g: l.gm, assign: l.assign, members: l.members, alive: l.alive, draining: l.draining,
		adverts: adverts, tenants: sortedKeys(l.tenantLoad), ingest: l.ingest, extract: l.extract,
		frontiers: l.frontiers, checkpoints: l.checkpoints, scores: l.scoresLocked(),
		heartbeat: l.heartbeat, failAfter: l.failAfter, epoch: l.sched.Epoch}
}

// schedule assembles the schedule for v's members and the given
// assignment: peer maps from registration adverts, routes from the
// composite graph, relays elected by congestion score.
func (v view) schedule(assign map[string]string, ingest map[stream.ID]string, extract map[stream.ID][]string, epoch uint64) Schedule {
	peerAddrs := make(map[string]string, len(v.members))
	var peerHosts, peerShm, peerBShm map[string]string
	put := func(m *map[string]string, w, val string) {
		if val == "" {
			return
		}
		if *m == nil {
			*m = make(map[string]string)
		}
		(*m)[w] = val
	}
	for _, w := range v.members {
		a, ok := v.adverts[w]
		if !ok {
			continue
		}
		peerAddrs[w] = a.DataAddr
		put(&peerHosts, w, a.HostID)
		put(&peerShm, w, a.ShmAddr)
		put(&peerBShm, w, a.BShmAddr)
	}
	routes := Routes(v.g, assign, v.members, ingest, extract)
	return Schedule{
		Assignments: assign,
		Routes:      routes,
		PeerAddrs:   peerAddrs,
		PeerHosts:   peerHosts,
		PeerShm:     peerShm,
		PeerBShm:    peerBShm,
		PeerRelay:   electRelays(routes, peerHosts, v.scores),
		Heartbeat:   v.heartbeat,
		FailAfter:   v.failAfter,
		Epoch:       epoch,
		Tenants:     v.tenants,
	}
}

// electRelays designates, for every Broadcast route and every remote host
// holding two or more of its consumers, the consumer on that host that
// relays the stream: the producer ships it one wire frame and it
// republishes locally. Hosts with a single consumer gain nothing from a
// relay hop (one wire frame either way, minus a queue traversal) and stay
// pairwise; so do hostless consumers and consumers sharing the producer's
// host (the broadcast ring already covers those). Among candidates the
// least-loaded wins by congestion score, ties broken lexicographically so
// every schedule build is deterministic. Recomputed on every reschedule —
// join, drain, failover — so a dead relay is re-elected in the same delta
// that announces its death.
func electRelays(routes []Route, peerHosts map[string]string, scores map[string]int64) map[uint64]map[string]string {
	if len(peerHosts) == 0 {
		return nil
	}
	var out map[uint64]map[string]string
	for _, r := range routes {
		if !r.Broadcast {
			continue
		}
		prodHost := peerHosts[r.Producer]
		byHost := make(map[string][]string)
		for _, c := range r.Consumers {
			h := peerHosts[c]
			if h == "" || h == prodHost {
				continue
			}
			byHost[h] = append(byHost[h], c)
		}
		for h, cands := range byHost {
			if len(cands) < 2 {
				continue
			}
			best := cands[0]
			for _, c := range cands[1:] {
				if scores[c] < scores[best] || (scores[c] == scores[best] && c < best) {
					best = c
				}
			}
			if out == nil {
				out = make(map[uint64]map[string]string)
			}
			if out[r.Stream] == nil {
				out[r.Stream] = make(map[string]string)
			}
			out[r.Stream][h] = best
		}
	}
	return out
}

// acceptLoop admits late joiners on the leader's control listener. Each
// admission runs in its own goroutine so a slow joiner never blocks the
// next; reconfigMu serializes the actual membership change.
func (l *Leader) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.admitJoin(conn)
		}()
	}
}

// admitJoin registers one joiner and admits it by a transaction: the joiner
// gets the new epoch's schedule by handshake, the existing workers the
// membership delta, and the joiner starts once they have acked. It hosts no
// operators yet — the autoscaler or an explicit Migrate moves load onto it.
func (l *Leader) admitJoin(conn net.Conn) {
	s := &session{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := s.dec.Decode(&s.reg); err != nil {
		conn.Close()
		return
	}
	s.name = s.reg.Name

	l.reconfigMu.Lock()
	defer l.reconfigMu.Unlock()
	l.mu.Lock()
	if _, dup := l.sessions[s.name]; dup {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.sessions[s.name] = s
	l.members = append(l.members, s.name)
	sort.Strings(l.members)
	c := change{assign: l.assign, event: EventJoined, worker: s.name, join: s, target: s.name}
	l.mu.Unlock()
	_ = l.reconfigure(&c)
}

// handshake runs the joiner's pre-start exchange, as startPhase does:
// schedule, then ready. It stays under reconfigMu on purpose — a drain or
// failover interleaving with a half-admitted member would ship schedules
// that disagree about the member set — and the conn deadline bounds how
// long a wedged joiner can hold the lock.
func (l *Leader) handshake(s *session, sched Schedule) error {
	_ = s.conn.SetDeadline(time.Now().Add(joinHandshakeTimeout))
	if err := s.enc.Encode(scheduleMsg{Schedule: sched}); err != nil {
		return err
	}
	var r readyMsg
	return s.dec.Decode(&r)
}

// start makes a handshaken joiner live and tells it to start.
func (l *Leader) start(s *session) error {
	l.mu.Lock()
	l.alive[s.name] = true
	l.lastBeat[s.name] = time.Now()
	l.mu.Unlock()
	if err := s.enc.Encode(startMsg{}); err != nil {
		return err
	}
	_ = s.conn.SetDeadline(time.Time{})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.readSession(s)
	}()
	return nil
}

// Drain gracefully removes a live worker: its operators are frozen at a
// consistent point, their checkpoints handed to the leader, and re-placed
// onto the remaining workers by the same transaction failover uses; only
// after its barrier is the donor told it may exit (Node.Drained closes).
// Unlike failover, nothing is lost in flight — the donor's freeze-time
// checkpoints are exact, so adopters restore at the newest
// consumer-confirmed watermark and regeneration covers the rest.
func (l *Leader) Drain(name string) error {
	l.reconfigMu.Lock()
	defer l.reconfigMu.Unlock()

	l.mu.Lock()
	s, ok := l.sessions[name]
	switch {
	case !ok || !l.alive[name]:
		l.mu.Unlock()
		return fmt.Errorf("cluster: drain %s: no such live worker", name)
	case l.draining[name]:
		l.mu.Unlock()
		return fmt.Errorf("cluster: drain %s: already draining", name)
	}
	l.draining[name] = true
	if cs := candidates(l.members, l.alive, l.draining); l.draining[cs[0]] {
		delete(l.draining, name)
		l.mu.Unlock()
		return fmt.Errorf("cluster: drain %s: no destination workers", name)
	}
	l.pushEventLocked(Event{Kind: EventDrainStarted, Worker: name, At: time.Now(), Epoch: l.sched.Epoch + 1})
	l.mu.Unlock()

	err := l.freeze(s, nil)
	l.mu.Lock()
	if err != nil {
		delete(l.draining, name)
		l.mu.Unlock()
		return fmt.Errorf("cluster: drain %s: %w", name, err)
	}
	// The donor leaves like a dead worker, with exact freeze-time inputs; it
	// is no recipient, and the others Disconnect it on apply.
	c := l.leaveLocked(name, EventDrained)
	l.mu.Unlock()

	err = l.reconfigure(c)
	_ = s.send(ctrlMsg{M: drainDoneMsg{}}) // only after the barrier
	l.mu.Lock()
	l.forgetLocked(name)
	l.mu.Unlock()
	// The donor hangs up once it sees drainDoneMsg, and its session reader
	// closes the connection then; the deadline bounds that wait, so Stop
	// never hangs on a donor that stays.
	_ = s.conn.SetReadDeadline(time.Now().Add(4 * l.failAfter))
	return err
}

// freeze asks a live donor to freeze ops (nil = all) and folds the
// freeze-time checkpoints and frontiers it answers with into the leader's
// records, waiting at most 4x the fail window, the ack barrier's budget.
func (l *Leader) freeze(s *session, ops []string) error {
	ch := make(chan drainReadyMsg, 1)
	l.mu.Lock()
	l.drainWait[s.name] = ch
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.drainWait, s.name)
		l.mu.Unlock()
	}()
	if err := s.send(ctrlMsg{M: drainMsg{Ops: ops}}); err != nil {
		return err
	}
	select {
	case ready := <-ch:
		l.mu.Lock()
		defer l.mu.Unlock()
		l.checkpoints[s.name] = mergeCheckpoints(l.checkpoints[s.name], ready.Checkpoints)
		if ready.Frontiers != nil {
			l.frontiers[s.name] = ready.Frontiers
		}
		return nil
	case <-time.After(4 * l.failAfter):
		return fmt.Errorf("timed out waiting for checkpoint handoff")
	case <-l.quit:
		return fmt.Errorf("leader stopping")
	}
}

// Migrate moves the named operators from a live donor to target: the donor
// freezes just those operators and hands their checkpoints over; everyone
// (donor included — it must retarget forwarding) applies the new routes
// under the usual ack/replay barrier. Restore cuts treat only the moved
// set as orphans, so the donor's retained operators keep constraining the
// cut like any surviving consumer.
//
// Callers should move a consumer-closed producer set — in practice a whole
// tenant, which is what the autoscaler does. Inputs fed by retained
// co-located producers have no replay ring on the donor (local delivery
// never crossed the forwarding layer), so messages in flight between a
// retained producer and a moved consumer at freeze time would be
// regenerated only as far back as the producer's retained window.
func (l *Leader) Migrate(donor string, ops []string, target string) error {
	if len(ops) == 0 {
		return fmt.Errorf("cluster: migrate: no operators named")
	}
	if donor == target {
		return fmt.Errorf("cluster: migrate: donor and target are both %s", donor)
	}
	l.reconfigMu.Lock()
	defer l.reconfigMu.Unlock()

	l.mu.Lock()
	s, ok := l.sessions[donor]
	switch {
	case !ok || !l.alive[donor]:
		l.mu.Unlock()
		return fmt.Errorf("cluster: migrate: no such live donor %s", donor)
	case !l.alive[target] || l.draining[target]:
		l.mu.Unlock()
		return fmt.Errorf("cluster: migrate: target %s not a live schedulable worker", target)
	case l.draining[donor]:
		l.mu.Unlock()
		return fmt.Errorf("cluster: migrate: donor %s is draining", donor)
	}
	for _, op := range ops {
		if l.assign[op] != donor {
			l.mu.Unlock()
			return fmt.Errorf("cluster: migrate: %s is not on %s", op, donor)
		}
	}
	l.mu.Unlock()

	if err := l.freeze(s, ops); err != nil {
		return fmt.Errorf("cluster: migrate %s: %w", donor, err)
	}
	// Nobody leaves: the donor stays a recipient (it must retarget
	// forwarding), and its frontiers keep constraining the cut.
	l.mu.Lock()
	c := change{assign: moved(l.assign, target, ops...), event: EventMigrated, worker: target, target: target}
	l.mu.Unlock()
	return l.reconfigure(&c)
}

// Tenant is one pipeline submitted to a running cluster.
type Tenant struct {
	// Name tags the tenant's operators for deadline isolation accounting
	// and names it in Schedule.Tenants; must be unique across the cluster.
	Name string
	// Graph is the tenant's dataflow. Every node that may host it needs a
	// resolver (WithTenantResolver) returning a graph with identical
	// stream IDs — in-process, share this *graph.Graph itself.
	Graph *graph.Graph
	// IngestAt names the worker where each externally-injected stream
	// enters ("" = the tenant's home worker). Prefer a stable worker: an
	// injection point rides the leader's re-homing on drain/failover, but
	// messages in flight to it are only covered by forwarding replay
	// rings, which injection at the producer-side worker guarantees.
	IngestAt map[stream.ID]string
	// ExtractAt lists workers whose applications subscribe to each stream
	// without a local operator (extraction points).
	ExtractAt map[stream.ID][]string
	// Load is the tenant's declared admission load (operator count when
	// zero), in the same unit as WithTenantCapacity's per-worker budget.
	Load int64
}

// Submit admits a tenant pipeline into the running cluster: admission
// control against declared loads, home-worker selection (fewest tenants,
// then lowest congestion), graph extension on every node via the schedule's
// tenant list, and a reschedule placing the tenant's operators on its home.
// Per-tenant urgency-miss accounting (TenantMisses) starts at admission.
func (l *Leader) Submit(t Tenant) error {
	if t.Name == "" || t.Graph == nil {
		return fmt.Errorf("cluster: submit: tenant needs a name and a graph")
	}
	specs := t.Graph.Operators()
	load := t.Load
	if load <= 0 {
		load = int64(len(specs))
	}
	l.reconfigMu.Lock()
	defer l.reconfigMu.Unlock()

	l.mu.Lock()
	if _, dup := l.tenantLoad[t.Name]; dup {
		l.mu.Unlock()
		return fmt.Errorf("cluster: submit: tenant %s already admitted", t.Name)
	}
	cands := candidates(l.members, l.alive, l.draining)
	if len(cands) == 0 || l.draining[cands[0]] {
		l.mu.Unlock()
		return fmt.Errorf("cluster: submit %s: no schedulable workers", t.Name)
	}
	var used int64
	for _, v := range l.tenantLoad {
		used += v
	}
	if err := elastic.Admit(used, load, len(cands), l.tenantCap); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("cluster: submit %s: %w", t.Name, err)
	}
	byWorker := make(map[string]map[string]bool)
	for op, tn := range l.tenantOf {
		w := l.assign[op]
		if byWorker[w] == nil {
			byWorker[w] = make(map[string]bool)
		}
		byWorker[w][tn] = true
	}
	counts := make(map[string]int, len(byWorker))
	for w, ts := range byWorker {
		counts[w] = len(ts)
	}
	home := elastic.PickTenantWorker(cands, counts, l.scoresLocked())
	l.mu.Unlock()

	// Extending the composite graph validates the tenant (unique operator
	// and stream names) before any shared state changes.
	if err := l.gm.Add(t.Graph); err != nil {
		return fmt.Errorf("cluster: submit %s: %w", t.Name, err)
	}

	l.mu.Lock()
	var names []string
	for _, spec := range specs {
		names = append(names, spec.Name)
		l.tenantOf[spec.Name] = t.Name
	}
	c := change{assign: moved(l.assign, home, names...), event: EventTenantAdmitted, worker: home}
	l.tenantLoad[t.Name] = load
	for id, w := range t.IngestAt {
		if w == "" {
			w = home
		}
		if l.ingest == nil {
			l.ingest = make(map[stream.ID]string)
		}
		l.ingest[id] = w
	}
	for id, ws := range t.ExtractAt {
		if l.extract == nil {
			l.extract = make(map[stream.ID][]string)
		}
		l.extract[id] = append(append([]string(nil), l.extract[id]...), ws...)
	}
	l.mu.Unlock()
	if err := l.reconfigure(&c); err != nil {
		return fmt.Errorf("cluster: submit %s: %w", t.Name, err)
	}
	return nil
}

// autoscaleTick runs one autoscaler observation from the monitor loop and,
// when a decision fires, launches the scale action in a detached goroutine
// (gated to one in flight by scaleBusy) so a slow spawn or migration never
// wedges failure detection.
func (l *Leader) autoscaleTick() {
	if l.scaler == nil || l.pool == nil {
		return
	}
	l.mu.Lock()
	if l.scaleBusy {
		l.mu.Unlock()
		return
	}
	scores := l.scoresLocked()
	// Candidate scores default to zero for workers that have not reported
	// yet, so a joiner immediately counts toward cold detection.
	cand := make(map[string]int64)
	for _, w := range l.members {
		if l.alive[w] && !l.draining[w] {
			cand[w] = scores[w]
		}
	}
	d := l.scaler.Observe(cand, len(cand))
	switch d.Kind {
	case elastic.ScaleUp:
		l.scaleBusy = true
		l.autoName++
		name := fmt.Sprintf("w-elastic-%d", l.autoName)
		l.pushEventLocked(Event{Kind: EventScaleUp, Worker: d.Hot, At: time.Now(), Epoch: l.sched.Epoch})
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.scaleUp(d.Hot, name)
		}()
	case elastic.ScaleDown:
		var pool []string
		for w := range cand {
			if l.spawned[w] {
				pool = append(pool, w)
			}
		}
		victim := elastic.Idlest(pool, scores)
		if victim == "" {
			// Nothing pool-spawned to retire; statically provisioned
			// workers are never scaled away.
			l.mu.Unlock()
			return
		}
		l.scaleBusy = true
		l.pushEventLocked(Event{Kind: EventScaleDown, Worker: victim, At: time.Now(), Epoch: l.sched.Epoch})
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.scaleDown(victim)
		}()
	default:
		l.mu.Unlock()
	}
}

// scaleUp spawns a worker through the pool (which joins it via the normal
// admission path) and rebalances by migrating one whole tenant — the one
// with the worst urgency-miss record — off the hot worker onto the new
// one. Moving a whole tenant keeps the migrated producer set closed (see
// Migrate) and is exactly the isolation lever: the overloaded tenant's
// pressure leaves with it.
func (l *Leader) scaleUp(hot, name string) {
	defer func() {
		l.mu.Lock()
		l.scaleBusy = false
		l.mu.Unlock()
	}()
	// reconfigMu is NOT held here: Spawn blocks until the worker's Join
	// completes, and admission itself takes reconfigMu.
	if err := l.pool.Spawn(name); err != nil {
		return
	}
	l.mu.Lock()
	l.spawned[name] = true
	tenant := ""
	opsOnHot := make(map[string][]string)
	for op, tn := range l.tenantOf {
		if l.assign[op] == hot {
			opsOnHot[tn] = append(opsOnHot[tn], op)
		}
	}
	for tn, ops := range opsOnHot {
		switch {
		case tenant == "",
			l.tenantMiss[tn] > l.tenantMiss[tenant],
			l.tenantMiss[tn] == l.tenantMiss[tenant] && len(ops) > len(opsOnHot[tenant]),
			l.tenantMiss[tn] == l.tenantMiss[tenant] && len(ops) == len(opsOnHot[tenant]) && tn < tenant:
			tenant = tn
		}
	}
	ops := append([]string(nil), opsOnHot[tenant]...)
	l.mu.Unlock()
	if tenant == "" || len(ops) == 0 {
		// No tenant lives on the hot worker — the joiner still relieves it
		// indirectly (future placement prefers the idle member).
		return
	}
	sort.Strings(ops)
	_ = l.Migrate(hot, ops, name)
}

// scaleDown drains the chosen pool-spawned worker (moving its operators
// back onto the remaining members) and then asks the pool to stop it. The
// pool only stops a worker the leader has already drained.
func (l *Leader) scaleDown(victim string) {
	defer func() {
		l.mu.Lock()
		l.scaleBusy = false
		l.mu.Unlock()
	}()
	if err := l.Drain(victim); err != nil {
		return
	}
	_ = l.pool.Retire(victim)
	l.mu.Lock()
	delete(l.spawned, victim)
	l.mu.Unlock()
}

// Members returns the current scheduled worker set, sorted.
func (l *Leader) Members() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.members...)
}

// Draining reports the workers currently mid-drain, sorted.
func (l *Leader) Draining() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeys(l.draining)
}

// Tenants returns the admitted tenant names, sorted.
func (l *Leader) Tenants() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeys(l.tenantLoad)
}

// sortedKeys returns m's keys, sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TenantMisses returns the cumulative urgency-miss count per tenant since
// admission, accumulated from per-operator heartbeat deltas. Operators
// outside any tenant (the leader's base graph) aggregate under "".
func (l *Leader) TenantMisses() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.tenantMiss))
	for t, n := range l.tenantMiss {
		out[t] = n
	}
	return out
}
