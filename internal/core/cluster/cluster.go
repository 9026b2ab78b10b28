// Package cluster implements ERDOS' leader-worker architecture (§6 of the
// paper). The leader owns a TCP control plane over which workers register;
// it partitions the operator graph, distributes the schedule and stream
// routing table, and synchronizes initialization so every operator is ready
// before any message flows. The data plane (package comm) runs
// worker-to-worker, keeping the leader off the critical path.
//
// With a heartbeat period configured the leader stays resident after start
// (§3.4): workers send periodic heartbeats carrying lazy state checkpoints,
// the leader declares a worker dead after a configurable silence, re-places
// its operators onto survivors (affinity groups intact), and pushes an
// updated Schedule/Routes delta; survivors adopt the orphaned operators,
// restore their time-versioned state at the last consistent watermark, and
// replay recent traffic to the new owners, while the outage itself surfaces
// to the application as deadline misses handled by the existing DEH
// policies. With a zero heartbeat period the leader behaves exactly as
// before: register → schedule → start → get out of the way.
package cluster

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/cluster/elastic"
	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// Route describes where one stream's messages are produced and which remote
// workers need them forwarded.
type Route struct {
	Stream    uint64
	Producer  string
	Consumers []string
	// Broadcast marks a fanout edge (two or more consumers): the producer
	// may cover same-host consumers with a single publish onto its
	// shared-memory broadcast ring instead of one send per link.
	Broadcast bool
}

// Schedule is the leader's placement decision.
type Schedule struct {
	// Assignments maps operator name to worker name.
	Assignments map[string]string
	// Routes lists cross-worker forwarding rules.
	Routes []Route
	// PeerAddrs maps worker name to its data-plane address.
	PeerAddrs map[string]string
	// PeerHosts maps worker name to its advertised host identity; two
	// workers sharing an entry are candidates for the shared-memory ring
	// backend. Workers that did not advertise a host are absent.
	PeerHosts map[string]string
	// PeerShm maps worker name to its shared-memory rendezvous address,
	// dialable as "shm://<addr>" by peers on the same host.
	PeerShm map[string]string
	// PeerBShm maps worker name to its SPMC broadcast-ring rendezvous
	// address: same-host consumers of that worker's Broadcast routes join
	// the ring and receive every fanout frame from one publish.
	PeerBShm map[string]string
	// PeerRelay maps stream → remote host → the worker designated to relay
	// that stream's fanout on that host: the producer ships one tagRelay
	// envelope to the relay, which republishes locally (its broadcast ring
	// for ring members, pairwise shared-frame for the rest), so cross-host
	// wire cost is one frame per host instead of one per consumer. Elected
	// per Broadcast route, recomputed on every join/drain/failover.
	PeerRelay map[uint64]map[string]string
	// Heartbeat is the worker heartbeat period; zero disables the
	// resident control plane (one-shot leader).
	Heartbeat time.Duration
	// FailAfter is the heartbeat silence after which the leader declares
	// a worker dead.
	FailAfter time.Duration
	// Epoch increments with every reschedule; workers ignore deltas for
	// epochs they have already applied.
	Epoch uint64
	// Tenants lists the admitted tenant pipelines (sorted). A node seeing
	// an unfamiliar name resolves the tenant's graph locally (the graphs
	// carry Go callbacks, so they cannot travel over gob) and extends its
	// worker before adopting any of the tenant's operators.
	Tenants []string
}

// Control plane message types. The registration/start phase exchanges the
// typed messages directly; after start, the resident control plane wraps
// every message in ctrlMsg so both directions can carry multiple types over
// the same gob stream.
type registerMsg struct {
	Name     string
	DataAddr string
	// HostID is the worker's host identity (empty when host locality is
	// off); workers advertising the same HostID get ring links. ShmAddr is
	// the worker's shared-memory rendezvous address for those links.
	// BShmAddr is the rendezvous address of the worker's SPMC broadcast
	// ring, joined by same-host consumers of its Broadcast routes.
	HostID   string
	ShmAddr  string
	BShmAddr string
}
type scheduleMsg struct{ Schedule Schedule }
type readyMsg struct{ Name string }
type startMsg struct{}

// ctrlMsg is the post-start envelope.
type ctrlMsg struct{ M any }

// heartbeatMsg is sent worker→leader every Schedule.Heartbeat. Checkpoints
// carries the worker's operator state snapshots (lazy checkpointing: the
// recent committed versions per operator ride along with the heartbeat).
// Checkpoints are shipped as deltas against the leader's acknowledged
// version watermark (checkpointAckMsg): versions the leader already retains
// are trimmed, and operators with nothing new are omitted entirely, so a
// steady-state heartbeat carries no state payload at all. Frontiers carries
// the worker's per-input-stream received watermarks, the raw material for
// the consistent restore cut on failover. A stale frontier only understates
// progress, so the cut it produces is conservative — never unsafe.
type heartbeatMsg struct {
	Name        string
	Seq         uint64
	Checkpoints map[string]state.Checkpoint
	Frontiers   map[stream.ID]uint64
	Congestion  CongestionReport
	// OpMisses is the cumulative urgency-miss count per local operator,
	// the per-tenant slice of Congestion.UrgencyMisses: the leader
	// differences consecutive values and aggregates by tenant so one
	// tenant's blown deadlines are attributable to it alone.
	OpMisses map[string]uint64
}

// CongestionReport is a worker's queueing-pressure snapshot, shipped in
// every heartbeat: instantaneous lattice queue depths, the cumulative count
// of callbacks dispatched after their deadline had already expired, and the
// per-peer data-plane coalescing stats. The leader folds these into its
// placement decisions so orphans land away from saturated workers.
type CongestionReport struct {
	// Ready/Pending are the worker's lattice queue depths at snapshot time.
	Ready   int64
	Pending int64
	// UrgencyMisses is cumulative; the leader differences consecutive
	// heartbeats to get a rate.
	UrgencyMisses uint64
	// Peers carries per-link coalescing telemetry keyed by peer name — the
	// raw material for spotting hot edges.
	Peers map[string]comm.PeerCoalesceStats
	// RelayRepublished is the cumulative count of local deliveries this
	// worker performed as a relay (fanout copies it absorbed on behalf of
	// remote producers); RelayRingSpills counts records its broadcast ring
	// force-published mid-train while republishing oversized frames. High
	// values mark the worker as a fanout trunk for placement scoring.
	RelayRepublished uint64
	RelayRingSpills  uint64
	// RelayRingEvictions is the cumulative count of same-host readers its
	// broadcast ring cut loose for lagging past EvictAfter; each one fell
	// back to its pairwise link. Zero at steady state.
	RelayRingEvictions uint64
	// Unreached is the cumulative count of consumers this worker's
	// forwards did not reach (Node.Unreached). Zero at steady state; a
	// rise marks frames lost to a link that dropped between heartbeats.
	Unreached uint64
}

// Score collapses a report into a single placement-ranking pressure value:
// instantaneous queue depth plus a heavily weighted recent urgency-miss
// rate (missDelta is the miss-count increase since the previous heartbeat —
// each one is a deadline the scheduler already blew, so it dominates mere
// backlog).
func (r CongestionReport) Score(missDelta uint64) int64 {
	return r.Ready + r.Pending + 8*int64(missDelta)
}

// rescheduleMsg is pushed leader→workers after a failure: the dead worker,
// the new schedule, the last known checkpoints of the orphaned operators
// for restore-on-migration, and per-orphan restore cuts (the newest
// watermark each may restore at so that no output a surviving consumer
// still needs is skipped; absent means unconstrained).
type rescheduleMsg struct {
	Dead        string
	Schedule    Schedule
	Checkpoints map[string]state.Checkpoint
	RestoreAt   map[string]uint64
}

// rescheduleAckMsg confirms a worker applied the delta for Epoch.
type rescheduleAckMsg struct {
	Name  string
	Epoch uint64
}

// checkpointAckMsg is the leader's version watermark, pushed back after a
// heartbeat that carried checkpoint payload: Acked[op] is the newest
// committed version L the leader now retains for op. The worker trims
// everything at or below the watermark from subsequent heartbeats — the
// leader splices those deltas onto its retained snapshots — so unchanged
// versions cross the control stream exactly once. A lost or stale ack only
// makes the next heartbeat larger than necessary, never incorrect.
type checkpointAckMsg struct {
	Acked map[string]uint64
}

// replayMsg is the leader's barrier release: every survivor has applied
// the Epoch delta (adopted operators are subscribed and fenced), so
// producers may now replay their retained windows and start forwarding to
// the new consumers. Without the barrier a replayed window could reach a
// worker before it adopts the consuming operator and be lost.
type replayMsg struct {
	Epoch uint64
}

// drainMsg is pushed leader→worker to freeze operators on a live donor:
// the named operators (nil means every local operator — a full drain) are
// retired, snapshotted, and removed, and the worker answers with
// drainReadyMsg carrying the fresh checkpoints. Unlike failover, the
// donor participates: its state is captured at the instant of the freeze
// rather than at the last heartbeat.
type drainMsg struct {
	Ops []string
}

// drainReadyMsg is the donor's answer to drainMsg: checkpoints of the
// released operators taken at the freeze, plus the donor's current
// frontiers (retained operators and extraction taps), fresher than any
// heartbeat the leader holds.
type drainReadyMsg struct {
	Name        string
	Checkpoints map[string]state.Checkpoint
	Frontiers   map[stream.ID]uint64
}

// drainDoneMsg tells a fully-drained worker that its operators live
// elsewhere and the replay barrier has released: it may now exit without
// losing anything.
type drainDoneMsg struct{}

func init() {
	gob.Register(registerMsg{})
	gob.Register(scheduleMsg{})
	gob.Register(readyMsg{})
	gob.Register(startMsg{})
	gob.Register(heartbeatMsg{})
	gob.Register(rescheduleMsg{})
	gob.Register(rescheduleAckMsg{})
	gob.Register(checkpointAckMsg{})
	gob.Register(replayMsg{})
	gob.Register(drainMsg{})
	gob.Register(drainReadyMsg{})
	gob.Register(drainDoneMsg{})
}

// Placement computes the operator assignment for a graph: an operator's
// explicit Placement wins; unplaced operators in an affinity group follow
// the group's first assigned member (the whole group consumes one
// round-robin slot); remaining operators are assigned round-robin.
func Placement(g graph.View, workers []string) (map[string]string, error) {
	return PlacementLoaded(g, workers, nil)
}

// PlacementLoaded is Placement with congestion steering: each round-robin
// slot is overridden when a strictly less-congested worker exists (score is
// the leader's per-worker CongestionReport.Score), so a restarted or
// re-planned graph keeps its hot operators off workers that are already
// saturated. Affinity grouping and explicit pins always win over steering;
// with nil or uniform scores the result is exactly Placement's.
func PlacementLoaded(g graph.View, workers []string, score map[string]int64) (map[string]string, error) {
	return PlacementTopo(g, workers, score, nil)
}

// opNeighbors is the operator adjacency of g: for each operator, the
// operators it exchanges stream traffic with (producers of its inputs and
// consumers of its outputs) — the edges whose transport cost placement can
// influence.
func opNeighbors(g graph.View) map[string][]string {
	producer := make(map[stream.ID]string)
	for _, op := range g.Operators() {
		for _, out := range op.Outputs {
			producer[out] = op.Name
		}
	}
	nb := make(map[string][]string)
	for _, op := range g.Operators() {
		for _, in := range op.Inputs {
			if p, ok := producer[in]; ok && p != op.Name {
				nb[op.Name] = append(nb[op.Name], p)
				nb[p] = append(nb[p], op.Name)
			}
		}
	}
	return nb
}

// neighborHosts collects the advertised hosts of op's already-placed graph
// neighbors: the hosts on which a ring edge (rather than a TCP edge) to
// this operator could exist. Workers without a host advert contribute
// nothing.
func neighborHosts(neighbors map[string][]string, assign, hosts map[string]string, op string) map[string]bool {
	var nb map[string]bool
	for _, peer := range neighbors[op] {
		w, placed := assign[peer]
		if !placed {
			continue
		}
		if h := hosts[w]; h != "" {
			if nb == nil {
				nb = make(map[string]bool)
			}
			nb[h] = true
		}
	}
	return nb
}

// PlacementTopo is PlacementLoaded with host topology: hosts maps worker
// name to its advertised host identity (from registration), and a stream
// edge between two workers on the same host rides a shared-memory ring —
// several times cheaper than loopback TCP. Congestion still dominates:
// host locality only re-breaks ties among equally-scored workers, pulling
// an operator onto a host where one of its graph neighbors already landed.
// With nil hosts the result is exactly PlacementLoaded's.
func PlacementTopo(g graph.View, workers []string, score map[string]int64, hosts map[string]string) (map[string]string, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	valid := make(map[string]bool, len(workers))
	for _, w := range workers {
		valid[w] = true
	}
	assign := make(map[string]string)
	groupWorker := make(map[int]string)
	var neighbors map[string][]string
	if len(hosts) > 0 {
		neighbors = opNeighbors(g)
	}
	next := 0
	pickWorker := func(nbHosts map[string]bool) string {
		w := workers[next%len(workers)]
		next++
		// Congestion steering: keep the rotation's choice unless some
		// worker is strictly less congested (first such worker in
		// registration order, so the result stays deterministic).
		for _, c := range workers {
			if score[c] < score[w] {
				w = c
			}
		}
		// Host-local steering: among equally congested workers, prefer
		// the first (registration order) on a host where a neighbor of
		// this operator already lives, so the edge becomes a ring edge.
		if len(nbHosts) > 0 && !nbHosts[hosts[w]] {
			for _, c := range workers {
				if score[c] == score[w] && nbHosts[hosts[c]] {
					w = c
					break
				}
			}
		}
		return w
	}
	for _, op := range g.Operators() {
		gid, grouped := g.AffinityOf(op.Name)
		if op.Placement != "" {
			if !valid[op.Placement] {
				return nil, fmt.Errorf("cluster: operator %q pinned to unknown worker %q", op.Name, op.Placement)
			}
			assign[op.Name] = op.Placement
			if grouped {
				if _, ok := groupWorker[gid]; !ok {
					groupWorker[gid] = op.Placement
				}
			}
			continue
		}
		if grouped {
			if w, ok := groupWorker[gid]; ok {
				assign[op.Name] = w
				continue
			}
		}
		w := pickWorker(neighborHosts(neighbors, assign, hosts, op.Name))
		assign[op.Name] = w
		if grouped {
			groupWorker[gid] = w
		}
	}
	return assign, nil
}

// Reassign re-places a dead worker's operators onto the survivors: affinity
// groups move as a unit (following any surviving member's worker when one
// exists), pins to the dead worker are treated as unpinned, and each orphan
// lands on the least-loaded survivor at that point (ties break
// lexicographically), keeping the result deterministic.
func Reassign(g graph.View, assign map[string]string, dead string, survivors []string) map[string]string {
	return ReassignLoaded(g, assign, dead, survivors, nil)
}

// ReassignLoaded is Reassign with congestion awareness: orphans still follow
// their affinity group's surviving worker when one exists (splitting a
// co-located chain would cost more than any queueing relief buys), but
// otherwise land on the survivor with the lowest congestion score — the
// leader's per-worker CongestionReport.Score from the latest heartbeats —
// breaking score ties by operator load and then name. A hot edge whose dead
// endpoint would re-land next to a saturated peer is thereby steered to a
// quieter worker, affinity permitting. With nil scores this is exactly
// Reassign's least-loaded placement, so the result stays deterministic for
// a given score snapshot.
func ReassignLoaded(g graph.View, assign map[string]string, dead string, survivors []string, score map[string]int64) map[string]string {
	return ReassignTopo(g, assign, dead, survivors, score, nil)
}

// ReassignTopo is ReassignLoaded with host topology (see PlacementTopo):
// an orphan whose congestion-score candidates tie lands on the survivor
// sharing a host with one of its graph neighbors, so the rescued edge comes
// back as a ring edge instead of a TCP edge. Affinity and congestion still
// rank first; with nil hosts the result is exactly ReassignLoaded's.
func ReassignTopo(g graph.View, assign map[string]string, dead string, survivors []string, score map[string]int64, hosts map[string]string) map[string]string {
	next := make(map[string]string, len(assign))
	load := make(map[string]int, len(survivors))
	for _, w := range survivors {
		load[w] = 0
	}
	groupWorker := make(map[int]string)
	for op, w := range assign {
		if w == dead {
			continue
		}
		next[op] = w
		load[w]++
		if gid, ok := g.AffinityOf(op); ok {
			groupWorker[gid] = w
		}
	}
	var neighbors map[string][]string
	if len(hosts) > 0 {
		neighbors = opNeighbors(g)
	}
	leastLoaded := func(nbHosts map[string]bool) string {
		best := ""
		for _, w := range survivors {
			switch {
			case best == "":
				best = w
			case score[w] != score[best]:
				if score[w] < score[best] {
					best = w
				}
			case nbHosts[hosts[w]] != nbHosts[hosts[best]]:
				// Equal congestion: prefer the survivor whose host
				// carries one of the orphan's neighbors (ring edge).
				if nbHosts[hosts[w]] {
					best = w
				}
			case load[w] != load[best]:
				if load[w] < load[best] {
					best = w
				}
			case w < best:
				best = w
			}
		}
		return best
	}
	for _, op := range g.Operators() {
		if assign[op.Name] != dead {
			continue
		}
		gid, grouped := g.AffinityOf(op.Name)
		var target string
		if grouped {
			if w, ok := groupWorker[gid]; ok {
				target = w
			}
		}
		if target == "" {
			target = leastLoaded(neighborHosts(neighbors, next, hosts, op.Name))
		}
		next[op.Name] = target
		load[target]++
		if grouped {
			groupWorker[gid] = target
		}
	}
	return next
}

// Routes computes the cross-worker forwarding table. ingestAt names the
// worker on which the application injects each ingest stream (defaulting to
// the first worker); extractAt lists extra workers that need a stream
// forwarded for extraction. Deadline-feed streams (pDP's allocations) are
// forwarded to every other worker: each worker subscribes its local
// dynamic-deadline sources to its own broadcaster, so all of them need the
// updates regardless of operator placement.
func Routes(g graph.View, assign map[string]string, workers []string, ingestAt map[stream.ID]string, extractAt map[stream.ID][]string) []Route {
	feeds := make(map[stream.ID]bool)
	for _, f := range g.DeadlineFeeds() {
		feeds[f.Stream] = true
	}
	var routes []Route
	for _, s := range g.Streams() {
		producer := ""
		if w, ok := g.Writer(s.ID); ok {
			producer = assign[w]
		} else if s.Ingest {
			if w, ok := ingestAt[s.ID]; ok {
				producer = w
			} else {
				producer = workers[0]
			}
		} else {
			continue
		}
		consumers := make(map[string]bool)
		for _, r := range g.Readers(s.ID) {
			if w := assign[r]; w != producer {
				consumers[w] = true
			}
		}
		for _, w := range extractAt[s.ID] {
			if w != producer {
				consumers[w] = true
			}
		}
		if feeds[s.ID] {
			for _, w := range workers {
				if w != producer {
					consumers[w] = true
				}
			}
		}
		if len(consumers) == 0 {
			continue
		}
		list := make([]string, 0, len(consumers))
		for w := range consumers {
			list = append(list, w)
		}
		sort.Strings(list)
		routes = append(routes, Route{Stream: uint64(s.ID), Producer: producer,
			Consumers: list, Broadcast: len(list) >= 2})
	}
	return routes
}

// session is the leader's view of one worker's control connection. After
// the start phase the monitor goroutine is the only writer, so enc needs no
// extra locking.
type session struct {
	name string
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	reg  registerMsg
	// encMu serializes post-start writers on enc: the failover path pushes
	// reschedule and replay-barrier messages from the monitor goroutine
	// while readSession pushes checkpoint acks from the session reader.
	encMu sync.Mutex
}

// send encodes m under the session's writer lock.
func (s *session) send(m ctrlMsg) error {
	s.encMu.Lock()
	defer s.encMu.Unlock() //erdos:allow lockhold encMu exists to serialize writers on the single control stream
	return s.enc.Encode(m)
}

// Leader runs the control plane for a fixed set of workers.
type Leader struct {
	ln        net.Listener
	workers   []string
	gm        *graph.Multi
	heartbeat time.Duration
	failAfter time.Duration

	started chan struct{}
	done    chan struct{}
	quit    chan struct{}
	quitSet sync.Once
	wg      sync.WaitGroup

	// reconfigMu serializes every membership/placement reconfiguration —
	// failover, join admission, drain, migration, tenant submission — so
	// two epochs never build concurrently from the same base. Always
	// acquired before l.mu, never while holding it.
	reconfigMu sync.Mutex

	// autoscale policy (nil without WithAutoscale). The scaler is only
	// touched by the monitor goroutine; pool spawn/retire runs in a
	// detached goroutine guarded by scaleBusy so a slow migration never
	// wedges failure detection.
	pool   elastic.Pool
	scaler *elastic.Autoscaler

	mu          sync.Mutex
	err         error
	sessions    map[string]*session
	alive       map[string]bool
	lastBeat    map[string]time.Time
	checkpoints map[string]map[string]state.Checkpoint
	frontiers   map[string]map[stream.ID]uint64
	// congestion is each worker's latest heartbeat report; missBase and
	// missDelta turn the cumulative urgency-miss counter into a recent
	// rate (the increase over the previous heartbeat).
	congestion map[string]CongestionReport
	missBase   map[string]uint64
	missDelta  map[string]uint64
	assign     map[string]string
	sched      Schedule
	ingest     map[stream.ID]string
	extract    map[stream.ID][]string
	// acks feeds the reconfiguration in flight (or last run): readSession
	// forwards the name of every worker acking ackEpoch.
	acks     chan string
	ackEpoch uint64
	// events is a ring of evDepth entries, made at the first push, so a
	// long-running elastic cluster's log cannot grow without bound.
	events  *ring[Event]
	evDepth int
	// members is the current scheduled worker set (sorted): joiners are
	// appended, drained and dead workers removed. draining marks workers
	// mid-drain — still heartbeating, excluded from placement candidate
	// sets and failure detection. drainWait routes each donor's
	// drainReadyMsg to the reconfiguration waiting on it.
	members   []string
	draining  map[string]bool
	drainWait map[string]chan drainReadyMsg
	// Tenancy: tenantOf tags each tenant operator with its tenant,
	// tenantLoad records declared admission loads, tenantCap is the
	// per-worker capacity (0 = admission off). opMissBase differences each
	// operator's cumulative urgency-miss counter per worker; tenantMiss
	// accumulates the deltas per tenant.
	tenantOf   map[string]string
	tenantLoad map[string]int64
	tenantCap  int64
	opMissBase map[string]map[string]uint64
	tenantMiss map[string]uint64
	// scaleBusy gates the autoscale loop to one reconfiguration in
	// flight; spawned tracks pool-created workers (the only ones a
	// scale-down may retire) and autoName numbers them.
	scaleBusy bool
	spawned   map[string]bool
	autoName  int
}

// LeaderOption configures NewLeader.
type LeaderOption func(*Leader)

// WithHeartbeat keeps the leader resident after start: workers heartbeat
// every period, and a worker silent for failAfter is declared dead and its
// operators re-placed. failAfter <= 0 defaults to 2x the period.
func WithHeartbeat(period, failAfter time.Duration) LeaderOption {
	return func(l *Leader) {
		l.heartbeat = period
		if failAfter <= 0 {
			failAfter = 2 * period
		}
		l.failAfter = failAfter
	}
}

// defaultEventDepth bounds Events() history when WithEventHistory is not
// given.
const defaultEventDepth = 1024

// WithEventHistory bounds the leader's event log to the most recent depth
// entries (default 1024). depth <= 0 keeps the default.
func WithEventHistory(depth int) LeaderOption {
	return func(l *Leader) {
		if depth > 0 {
			l.evDepth = depth
		}
	}
}

// WithTenantCapacity enables admission control: a tenant whose declared
// load would push the cluster's total tenant load beyond
// perWorker x (non-draining workers) is rejected by Submit. perWorker <= 0
// disables the check.
func WithTenantCapacity(perWorker int64) LeaderOption {
	return func(l *Leader) { l.tenantCap = perWorker }
}

// WithAutoscale attaches a worker pool and hysteresis config to the
// resident leader: sustained congestion above cfg.HighWater spawns a
// worker and migrates the hottest tenant onto it; a sustained idle
// cluster drains and retires the idlest pool-spawned worker.
func WithAutoscale(pool elastic.Pool, cfg elastic.Config) LeaderOption {
	return func(l *Leader) {
		l.pool = pool
		l.scaler = elastic.NewAutoscaler(cfg)
	}
}

// NewLeader starts a leader on addr expecting the named workers to join.
func NewLeader(addr string, workers []string, g *graph.Graph, ingestAt map[stream.ID]string, extractAt map[stream.ID][]string, opts ...LeaderOption) (*Leader, error) {
	gm, err := graph.NewMulti(g)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Leader{
		ln: ln, workers: workers, gm: gm,
		ingest: ingestAt, extract: extractAt,
		started:     make(chan struct{}),
		done:        make(chan struct{}),
		quit:        make(chan struct{}),
		sessions:    make(map[string]*session),
		alive:       make(map[string]bool),
		lastBeat:    make(map[string]time.Time),
		checkpoints: make(map[string]map[string]state.Checkpoint),
		frontiers:   make(map[string]map[stream.ID]uint64),
		congestion:  make(map[string]CongestionReport),
		missBase:    make(map[string]uint64),
		missDelta:   make(map[string]uint64),
		evDepth:     defaultEventDepth,
		draining:    make(map[string]bool),
		drainWait:   make(map[string]chan drainReadyMsg),
		tenantOf:    make(map[string]string),
		tenantLoad:  make(map[string]int64),
		opMissBase:  make(map[string]map[string]uint64),
		tenantMiss:  make(map[string]uint64),
		spawned:     make(map[string]bool),
	}
	for _, o := range opts {
		o(l)
	}
	go l.run()
	return l, nil
}

// Addr returns the leader's control-plane address.
func (l *Leader) Addr() string { return l.ln.Addr().String() }

// scores folds the latest congestion reports into per-worker placement
// scores. Workers that never reported score zero.
func (l *Leader) scores() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scoresLocked()
}

// hostsLocked folds the workers' registration-time host adverts into the
// worker→host map the topology-aware placement variants consume. Workers
// that advertised no host are absent. Caller holds l.mu.
func (l *Leader) hostsLocked() map[string]string {
	var hosts map[string]string
	for name, s := range l.sessions {
		if s.reg.HostID == "" {
			continue
		}
		if hosts == nil {
			hosts = make(map[string]string)
		}
		hosts[name] = s.reg.HostID
	}
	return hosts
}

func (l *Leader) scoresLocked() map[string]int64 {
	if len(l.congestion) == 0 {
		return nil
	}
	out := make(map[string]int64, len(l.congestion))
	for w, r := range l.congestion {
		out[w] = r.Score(l.missDelta[w])
	}
	return out
}

// Congestion returns the latest congestion report heartbeat from each
// worker, for diagnostics and tests.
func (l *Leader) Congestion() map[string]CongestionReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]CongestionReport, len(l.congestion))
	for w, r := range l.congestion {
		out[w] = r
	}
	return out
}

// Wait blocks until the cluster is started (or the leader failed). A
// resident leader keeps running after Wait returns; use Stop to shut it
// down.
func (l *Leader) Wait() error {
	<-l.started
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stop shuts a resident leader down and waits for its goroutines. One-shot
// leaders (no heartbeat) stop on their own; calling Stop is still safe.
func (l *Leader) Stop() {
	l.quitSet.Do(func() { close(l.quit) })
	<-l.done
}

func (l *Leader) setErr(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

func (l *Leader) run() {
	defer close(l.done)
	err := l.startPhase()
	if err != nil {
		l.setErr(err)
	}
	close(l.started)
	if err != nil || l.heartbeat <= 0 {
		l.closeSessions()
		l.ln.Close()
		return
	}
	// Resident mode: one reader per session keeps heartbeats and acks
	// flowing in; the monitor turns heartbeat silence into failover.
	now := time.Now()
	l.mu.Lock()
	sessions := make([]*session, 0, len(l.sessions))
	for _, s := range l.sessions {
		l.alive[s.name] = true
		l.lastBeat[s.name] = now
		sessions = append(sessions, s)
	}
	l.mu.Unlock()
	for _, s := range sessions {
		s := s
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.readSession(s)
		}()
	}
	// Elastic membership: late joiners dial the same control address the
	// initial workers did; each admission runs the join protocol off the
	// accept loop so a slow joiner never blocks the next one.
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.acceptLoop()
	}()
	l.monitor()
	l.closeSessions()
	l.ln.Close()
	l.wg.Wait()
}

// startPhase runs the original one-shot protocol: collect registrations,
// push the schedule, collect readies, broadcast start.
func (l *Leader) startPhase() error {
	registered := 0
	for registered < len(l.workers) {
		conn, err := l.ln.Accept()
		if err != nil {
			return err
		}
		s := &session{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
		if err := s.dec.Decode(&s.reg); err != nil {
			return fmt.Errorf("cluster: register decode: %w", err)
		}
		s.name = s.reg.Name
		l.mu.Lock()
		l.sessions[s.name] = s
		registered = len(l.sessions)
		l.mu.Unlock()
	}
	// At first start no heartbeats have arrived and the scores are empty —
	// pure round-robin — but a leader re-planning after congestion reports
	// came in steers the initial assignment away from saturated workers.
	// Host adverts bias score ties toward ring edges (see PlacementTopo).
	l.mu.Lock()
	l.members = append([]string(nil), l.workers...)
	sort.Strings(l.members)
	hosts := l.hostsLocked()
	l.mu.Unlock()
	assign, err := PlacementTopo(l.gm, l.workers, l.scores(), hosts)
	if err != nil {
		return err
	}
	l.mu.Lock()
	sched := l.viewLocked().schedule(assign, l.ingest, l.extract, 0)
	l.assign, l.sched = assign, sched
	sessions := make([]*session, 0, len(l.sessions))
	for _, s := range l.sessions {
		sessions = append(sessions, s)
	}
	l.mu.Unlock()
	for _, s := range sessions {
		if err := s.enc.Encode(scheduleMsg{Schedule: sched}); err != nil {
			return err
		}
	}
	for _, s := range sessions {
		var r readyMsg
		if err := s.dec.Decode(&r); err != nil {
			return fmt.Errorf("cluster: ready decode: %w", err)
		}
	}
	for _, s := range sessions {
		if err := s.enc.Encode(startMsg{}); err != nil {
			return err
		}
	}
	return nil
}

func (l *Leader) closeSessions() {
	l.mu.Lock()
	sessions := make([]*session, 0, len(l.sessions))
	for _, s := range l.sessions {
		sessions = append(sessions, s)
	}
	l.mu.Unlock()
	for _, s := range sessions {
		s.conn.Close()
	}
}

// Node is one worker process: its runtime, its data-plane transport, and
// the forwarding rules installed from the leader's schedule.
type Node struct {
	Name      string
	Worker    *worker.Worker
	Transport *comm.Transport

	g        *graph.Graph
	ctrlConn net.Conn
	enc      *gob.Encoder
	encMu    sync.Mutex

	mu       sync.Mutex
	schedule Schedule
	epoch    uint64
	// hostID is this node's advertised host identity ("" when host
	// locality is off). lastScheme remembers each live peer's transport
	// scheme so a vanished ring link can be told apart from a vanished TCP
	// link; shmSuspect marks peers whose ring was severed — re-dials of a
	// suspect go straight to TCP (a fresh ring to a peer that just tore
	// one down is more likely to tear again than the socket path is).
	// repairing guards against stacking dials for the same peer across
	// heartbeat ticks. All four are guarded by mu.
	hostID     string
	lastScheme map[string]string
	shmSuspect map[string]bool
	repairing  map[string]bool
	// ckAcked is the leader's checkpoint version watermark per operator
	// (from checkpointAckMsg, guarded by mu): heartbeats trim everything at
	// or below it, so unchanged state versions ship exactly once.
	ckAcked map[string]uint64
	// hbBytes is the encoded size of the most recent heartbeat, measured on
	// the control stream — the observable the delta machinery shrinks —
	// and hbPeak the largest so far. The heartbeat loop is their only
	// writer.
	hbBytes atomic.Uint64
	hbPeak  atomic.Uint64
	// ctrlOut counts bytes written to the control stream (written only
	// under encMu once the heartbeat loop is running).
	ctrlOut *countingWriter
	// fwd holds per-stream forwarding state for locally-produced streams
	// (map guarded by mu; each entry has its own lock serializing sends).
	fwd map[stream.ID]*fwdState
	// bgroup is this node's SPMC broadcast ring (nil without host
	// locality); bus wraps its sink for single-publish fanout. busIn maps
	// producer peer name to the subscription on *its* broadcast ring
	// (guarded by mu).
	bgroup *shm.BroadcastGroup
	bus    *comm.Bus
	busIn  map[string]*busSub
	// pending are replay obligations deferred to the leader's replay
	// barrier for the pendingEpoch reschedule.
	pending      []pendingReplay
	pendingEpoch uint64
	// relayQ feeds the relay republish loop: tagRelay envelopes arriving
	// on the read goroutines are handed off here so republish fan-out
	// (ring publish + pairwise sends + local inject) never blocks the
	// producer link longer than an enqueue. Bounded, so a saturated relay
	// backpressures producers instead of buffering without limit;
	// relayed counts local deliveries performed on behalf of remote
	// producers, shipped in the heartbeat congestion report.
	relayQ  chan relayItem
	relayed atomic.Uint64

	// dialAttempts/dialBase parameterize the exponential backoff used by
	// every recovery dial (peer re-dials after a reschedule, heartbeat
	// link repair) and by the join rendezvous dial itself.
	dialAttempts int
	dialBase     time.Duration
	// resolver maps a tenant name from Schedule.Tenants to its locally
	// built graph (tenant graphs carry Go callbacks and cannot travel
	// over gob); tenantsKnown marks tenants already extended into the
	// worker (guarded by mu). drained closes when the leader confirms a
	// full drain's handoff is complete.
	resolver     func(tenant string) *graph.Graph
	tenantsKnown map[string]bool
	drained      chan struct{}
	drainedOnce  sync.Once

	forwarded atomic.Uint64
	// unreached counts the consumers a forward did not reach: a link
	// that dropped between heartbeats, or a retained relay route whose
	// cover waits for a replay.
	unreached atomic.Uint64
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// countingWriter counts bytes flowing to the wrapped writer. With writes
// serialized by the encoder's lock, before/after deltas yield exact
// encoded-message sizes on the live control stream.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n += uint64(k)
	return k, err
}

// HeartbeatBytes reports the encoded size of this node's most recent
// heartbeat. Delta shipping shrinks it to a small fixed envelope at steady
// state, independent of operator state size.
func (n *Node) HeartbeatBytes() uint64 { return n.hbBytes.Load() }

// HeartbeatPeakBytes reports the encoded size of this node's largest
// heartbeat so far, so a reader need not sample HeartbeatBytes at the
// right moment to see a fat one.
func (n *Node) HeartbeatPeakBytes() uint64 { return n.hbPeak.Load() }

// fwdState is one locally-produced stream's forwarding state. Its mutex
// serializes live forwarding with reschedule-time replay, so a retained
// window is always delivered to a new consumer before any newer message.
type fwdState struct {
	mu        sync.Mutex
	consumers []string
	ring      *ring[message.Message]
	// broadcast marks the stream's route as fanout-eligible: same-host
	// consumers attached to the node's broadcast ring are covered by one
	// bus publish instead of one send per link.
	broadcast bool
	// relays/local split consumers per the schedule's relay election:
	// each RelayDest is a remote host reached through one tagRelay
	// envelope to its designated relay, local is everyone else (same
	// host, hostless, or relay-less). Recomputed with every consumer-list
	// change under mu — always from the then-effective consumer set, so a
	// consumer parked behind a replay barrier is never named in a cover.
	relays []comm.RelayDest
	local  []string
}

// setPlanLocked installs consumers and recomputes the relay split from
// sched. Caller holds fs.mu.
func (fs *fwdState) setPlanLocked(sched Schedule, producer string, id stream.ID, consumers []string) {
	fs.consumers = consumers
	fs.relays, fs.local = fs.plan(sched, producer, id, consumers)
}

// plan is planFanout for this stream. Ring-backed streams mark their relay
// routes retained: a dead relay link withholds its cover instead of
// folding pairwise (which would reorder around the lost suffix), and the
// reschedule's forced replay delivers the gap from the ring.
func (fs *fwdState) plan(sched Schedule, producer string, id stream.ID, consumers []string) ([]comm.RelayDest, []string) {
	relays, local := planFanout(sched, producer, id, consumers)
	if fs.ring != nil {
		for i := range relays {
			relays[i].Retained = true
		}
	}
	return relays, local
}

// planFanout groups a stream's consumers by their schedule-elected relay.
// Consumers sharing the producer's host (the broadcast ring covers those),
// hostless consumers, and hosts the election skipped stay local. Relay
// order is sorted so forwarding is deterministic.
func planFanout(sched Schedule, producer string, id stream.ID, consumers []string) (relays []comm.RelayDest, local []string) {
	hostRelay := sched.PeerRelay[uint64(id)]
	if len(hostRelay) == 0 {
		return nil, consumers
	}
	prodHost := sched.PeerHosts[producer]
	var byRelay map[string][]string
	for _, c := range consumers {
		r := ""
		if h := sched.PeerHosts[c]; h != "" && h != prodHost {
			r = hostRelay[h]
		}
		if r == "" {
			local = append(local, c)
			continue
		}
		if byRelay == nil {
			byRelay = make(map[string][]string)
		}
		byRelay[r] = append(byRelay[r], c)
	}
	if byRelay == nil {
		return nil, local
	}
	names := make([]string, 0, len(byRelay))
	for r := range byRelay {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		relays = append(relays, comm.RelayDest{Relay: r, Cover: byRelay[r]})
	}
	return relays, local
}

// pendingReplay is a deferred ring replay: once the leader confirms every
// recipient applied the epoch, the stream's retained window is sent to the
// parked consumers and the full consumer list takes effect. parked names
// the consumers held out of the live plan at apply: additions, and
// survivors whose relay died with frames possibly queued (receivers drop
// everything at or below their restored watermark, so the overlap is
// exactly-once from the application's point of view).
type pendingReplay struct {
	id        stream.ID
	consumers []string
	parked    []string
}

// Schedule returns the node's current schedule (updated on reschedule).
func (n *Node) Schedule() Schedule {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.schedule
}

// Epoch returns the newest schedule epoch the node has applied.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// joinCfg carries Join's optional knobs.
type joinCfg struct {
	commOpts     []comm.Option
	hostID       string
	shmDir       string
	dialAttempts int
	dialBase     time.Duration
	resolver     func(tenant string) *graph.Graph
}

// JoinOption configures Join.
type JoinOption func(*joinCfg)

// WithCommOptions passes transport options (fault-injection hooks, codec
// filters) through to the node's data-plane transport.
func WithCommOptions(opts ...comm.Option) JoinOption {
	return func(c *joinCfg) { c.commOpts = append(c.commOpts, opts...) }
}

// WithDialBackoff parameterizes the node's recovery dials: attempts and
// base delay of the exponential backoff used when re-dialing peers after a
// reschedule, when repairing severed links at heartbeat ticks, and for the
// join rendezvous dial to the leader itself. Defaults: 8 attempts, 5ms
// base. Non-positive values keep the defaults.
func WithDialBackoff(attempts int, base time.Duration) JoinOption {
	return func(c *joinCfg) {
		if attempts > 0 {
			c.dialAttempts = attempts
		}
		if base > 0 {
			c.dialBase = base
		}
	}
}

// WithTenantResolver installs the node's tenant-graph lookup: when a
// schedule lists a tenant this node has not seen, resolve(name) supplies
// the tenant's locally built graph (nil when this node cannot host it) and
// the worker is extended with its streams before any of its operators are
// adopted. Tenant graphs carry Go callbacks, so they cannot travel over
// the control stream; every worker that may host a tenant needs a
// resolver producing a graph with identical stream IDs — in-process, share
// the *graph.Graph itself.
func WithTenantResolver(resolve func(tenant string) *graph.Graph) JoinOption {
	return func(c *joinCfg) { c.resolver = resolve }
}

// WithHostLocality advertises hostID as this worker's host identity and
// attaches a shared-memory ring backend to its data-plane transport: links
// to peers advertising the same hostID are dialed "shm://" first (several
// times cheaper than loopback TCP), falling back to TCP when ring setup
// fails. dir is where ring files and the rendezvous socket live; empty
// means the system temp dir. Workers on genuinely different hosts must use
// different hostIDs — the rings are mmap files, so a false match would
// dial a path the peer cannot share.
func WithHostLocality(hostID, dir string) JoinOption {
	return func(c *joinCfg) {
		c.hostID = hostID
		c.shmDir = dir
	}
}

// Join connects to the leader at addr, registers, builds the local worker
// for graph g, wires the data plane per the schedule, and returns once the
// leader starts the cluster. When the schedule carries a heartbeat period
// the node stays attached to the leader: it heartbeats with lazy state
// checkpoints and applies reschedule deltas after failures.
//
// Join returns with the data-plane mesh complete: every node dials its half
// of the mesh before it reports ready, a dial returns only once the acceptor
// has registered the link, and the leader starts no node before all are
// ready (a late joiner, before the existing workers have acked its delta).
func Join(addr, name string, g *graph.Graph, opts worker.Options, jopts ...JoinOption) (*Node, error) {
	cfg := joinCfg{dialAttempts: defaultDialAttempts, dialBase: defaultDialBase}
	for _, o := range jopts {
		o(&cfg)
	}
	// The rendezvous dial rides the same backoff policy as peer recovery
	// dials: a worker joining concurrently with leader startup (or
	// spawned by the autoscaler mid-reconfiguration) retries instead of
	// failing on the first connection refusal.
	var conn net.Conn
	var err error
	delay := cfg.dialBase
	for attempt := 0; ; attempt++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil || attempt >= cfg.dialAttempts-1 {
			break
		}
		time.Sleep(delay)
		delay *= 2
	}
	if err != nil {
		return nil, err
	}
	cw := &countingWriter{w: conn}
	enc := gob.NewEncoder(cw)
	dec := gob.NewDecoder(conn)

	n := &Node{
		Name:         name,
		g:            g,
		ctrlConn:     conn,
		enc:          enc,
		ctrlOut:      cw,
		fwd:          make(map[stream.ID]*fwdState),
		hostID:       cfg.hostID,
		lastScheme:   make(map[string]string),
		shmSuspect:   make(map[string]bool),
		repairing:    make(map[string]bool),
		ckAcked:      make(map[string]uint64),
		busIn:        make(map[string]*busSub),
		dialAttempts: cfg.dialAttempts,
		dialBase:     cfg.dialBase,
		resolver:     cfg.resolver,
		tenantsKnown: make(map[string]bool),
		drained:      make(chan struct{}),
		stop:         make(chan struct{}),
	}
	n.relayQ = make(chan relayItem, relayQueueDepth)
	fail := func(err error) (*Node, error) {
		n.Close()
		return nil, err
	}
	// Every node is relay-capable: the handshake advertises it, and the
	// leader may elect this worker to republish a stream to its co-host
	// consumers. Envelopes arriving before the republish loop starts just
	// queue.
	commOpts := append(cfg.commOpts[:len(cfg.commOpts):len(cfg.commOpts)],
		comm.WithRelayHandler(n.enqueueRelay))
	if cfg.hostID != "" {
		b := shm.New()
		b.Dir = cfg.shmDir
		commOpts = append(commOpts[:len(commOpts):len(commOpts)], comm.WithBackend(b, ""))
		// The node's own SPMC broadcast ring: same-host consumers of its
		// fanout routes join it and one publish covers them all. Ring
		// setup failure is not fatal — fanout falls back to pairwise
		// sends, the same degradation as a failed shm dial.
		if bg, err := b.NewBroadcastGroup(busReaderSlots); err == nil {
			n.bgroup = bg
			n.bus = comm.NewBus(bg.Sink(), busMaxBytes(b))
		}
	}
	// Inject takes over a payload the read loop decoded into a pooled buffer
	// (the message comes marked Owned; a value from an inproc link never
	// is), and recycles it when the local callbacks are done. The same holds
	// at the two other receive sites: busReadLoop and republishRelay. The
	// handler runs on transport goroutines started before the worker exists;
	// workerSet publishes n.Worker to them.
	var workerSet atomic.Bool
	tr, err := comm.Listen(name, "127.0.0.1:0", func(_ string, id stream.ID, m message.Message) {
		if workerSet.Load() {
			_ = n.Worker.Inject(id, m)
		}
	}, commOpts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.Transport = tr

	bshmAddr := ""
	if n.bgroup != nil {
		bshmAddr = n.bgroup.Addr()
	}
	if err := enc.Encode(registerMsg{
		Name: name, DataAddr: tr.Addr(),
		HostID: cfg.hostID, ShmAddr: tr.AddrOf("shm"), BShmAddr: bshmAddr,
	}); err != nil {
		return fail(err)
	}
	var sm scheduleMsg
	if err := dec.Decode(&sm); err != nil {
		return fail(fmt.Errorf("cluster: schedule decode: %w", err))
	}
	// A late joiner receives the cluster's current epoch with its initial
	// schedule; recording it keeps the epoch guard monotonic (at first
	// start it is simply zero).
	n.schedule = sm.Schedule
	n.epoch = sm.Schedule.Epoch

	opts.Name = name
	assign := sm.Schedule.Assignments
	opts.Owns = func(op string) bool { return assign[op] == name }
	w, err := worker.New(g, opts)
	if err != nil {
		return fail(err)
	}
	n.Worker = w
	workerSet.Store(true)

	// The republish loop runs for every node, resident or not: relay
	// envelopes can arrive as soon as peers dial us.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.relayLoop()
	}()

	// Extend the worker with any tenants already admitted, before the
	// forwarding/tracking loops below: tenant streams need broadcasters
	// for routes that name this node.
	n.syncTenants(sm.Schedule)

	// Establish the data-plane mesh: dial every peer whose name orders
	// after ours; the accept side completes the other half of each pair.
	// Same-host peers are dialed over their shared-memory ring first,
	// with TCP as the fallback when ring setup fails.
	for peerName := range sm.Schedule.PeerAddrs {
		if peerName <= name {
			continue
		}
		if err := n.dialPeer(sm.Schedule, peerName, 1, 0); err != nil {
			return fail(fmt.Errorf("cluster: dial %s: %w", peerName, err))
		}
	}

	// Join the broadcast rings of same-host producers whose fanout routes
	// we consume, before forwarding starts anywhere: membership must be
	// visible to a producer before its first publish or the first frames
	// arrive pairwise (harmless, but not the fast path).
	n.syncBusReaders(sm.Schedule)

	// Install forwarding for streams produced here with remote readers,
	// and frontier tracking for streams forwarded here: consumers without
	// a local operator (extraction points) otherwise report no frontier,
	// and their producer would restore unconstrained after a failover.
	resident := sm.Schedule.Heartbeat > 0
	for _, r := range sm.Schedule.Routes {
		if r.Producer == name {
			if err := n.setForwarding(stream.ID(r.Stream), r.Consumers, resident, r.Broadcast); err != nil {
				return fail(err)
			}
		}
		for _, c := range r.Consumers {
			if c == name {
				if err := n.Worker.TrackFrontier(stream.ID(r.Stream)); err != nil {
					return fail(err)
				}
			}
		}
	}

	if err := enc.Encode(readyMsg{Name: name}); err != nil {
		return fail(err)
	}
	var st startMsg
	if err := dec.Decode(&st); err != nil {
		return fail(fmt.Errorf("cluster: start decode: %w", err))
	}

	if resident {
		n.wg.Add(2)
		go func() {
			defer n.wg.Done()
			n.heartbeatLoop(sm.Schedule.Heartbeat)
		}()
		go func() {
			defer n.wg.Done()
			n.controlLoop(dec)
		}()
	} else {
		conn.Close()
		n.ctrlConn = nil
	}
	return n, nil
}

// setForwarding installs or updates the remote consumer list of a
// locally-produced stream, subscribing the forwarding tap on first use.
// Ring buffering is enabled for resident clusters so a reschedule can
// replay the recent window to a new consumer.
func (n *Node) setForwarding(id stream.ID, consumers []string, ring, broadcast bool) error {
	n.mu.Lock()
	fs := n.fwd[id]
	needSub := fs == nil
	if needSub {
		fs = &fwdState{}
		n.fwd[id] = fs
	}
	sched := n.schedule
	n.mu.Unlock()
	fs.mu.Lock()
	if ring && fs.ring == nil {
		fs.ring = newRing[message.Message](replayDepth)
	}
	fs.setPlanLocked(sched, n.Name, id, append([]string(nil), consumers...))
	fs.broadcast = broadcast
	fs.mu.Unlock()
	if !needSub {
		return nil
	}
	w := n.Worker
	return w.Subscribe(id, func(m message.Message) {
		// The producing operator's deadline slack bounds how long the
		// transport may hold the frame for coalescing; messages with no
		// armed deadline flush on queue drain as before.
		var hint comm.FlushHint
		if dl, ok := w.SendDeadline(id, m.Timestamp); ok {
			hint.FlushBy = dl
		}
		// Ring append and sends happen under the stream lock: a replay in
		// progress finishes delivering the retained window to a new
		// consumer before this (newer) message can reach it.
		fs.mu.Lock()
		if fs.ring != nil {
			fs.ring.add(m)
		}
		n.forward(fs.relays, fs.local, fs.broadcast, id, m, hint)
		fs.mu.Unlock()
	})
}

// forward ships one message along a stream's delivery plan — the live plan
// or a replay's share of it — called with the stream's fs.mu held so
// replays cannot be overtaken. Fanout edges take the single-encode
// multicast path; consumers attached to this node's broadcast ring are
// covered by one ring publish, remote hosts with an elected relay by one
// tagRelay envelope each, and the rest by refcounted shared frames. A
// single consumer keeps the plain per-link send.
func (n *Node) forward(relays []comm.RelayDest, local []string, broadcast bool, id stream.ID, m message.Message, hint comm.FlushHint) {
	switch {
	case len(relays) == 0 && len(local) == 0:
		return
	case len(relays) == 0 && len(local) == 1:
		if err := n.Transport.SendWithHint(local[0], id, m, hint); err == nil {
			n.forwarded.Add(1)
		} else {
			n.unreached.Add(1)
		}
		return
	}
	// Consumers not behind a relay split between this node's broadcast
	// ring and pairwise links.
	var bus *comm.Bus
	var busPeers []string
	pairPeers := local
	if broadcast {
		bus, busPeers, pairPeers = n.splitBus(local)
	}
	// MulticastTree degrades gracefully: a relay the handshake shows
	// incapable folds its cover back into pairwise sends inside the
	// transport. It counts relay-covered consumers among those it
	// reached, so every consumer it did not reach is one it failed.
	sent, _ := n.Transport.MulticastTree(bus, busPeers, pairPeers, relays, id, m, hint)
	n.forwarded.Add(uint64(sent))
	want := len(local)
	for _, rd := range relays {
		want += len(rd.Cover)
	}
	if sent < want {
		n.unreached.Add(uint64(want - sent))
	}
}

// splitBus partitions consumers between this node's broadcast ring (the
// ones attached to it right now) and pairwise links. bus is nil when none
// rides the ring.
func (n *Node) splitBus(consumers []string) (bus *comm.Bus, busPeers, pairPeers []string) {
	if n.bus == nil || n.bgroup == nil || len(consumers) == 0 {
		return nil, nil, consumers
	}
	members := n.bgroup.MemberSet()
	for _, c := range consumers {
		if members[c] {
			busPeers = append(busPeers, c)
		} else {
			pairPeers = append(pairPeers, c)
		}
	}
	if len(busPeers) > 0 {
		bus = n.bus
	}
	return bus, busPeers, pairPeers
}

// relayItem is one tagRelay envelope handed from a read goroutine to the
// republish loop. The loop owns frame (pooled) and m.
type relayItem struct {
	from   string
	id     stream.ID
	cover  []string
	decode func() (message.Message, error)
	frame  []byte
	typed  bool
	hint   comm.FlushHint
}

// relayQueueDepth bounds the republish backlog; a full queue blocks the
// producer link's read goroutine, which is exactly the backpressure a
// saturated relay should exert.
const relayQueueDepth = 256

// enqueueRelay is the transport's RelayHandler: hand the envelope to the
// republish loop, or recycle it if the node is shutting down.
func (n *Node) enqueueRelay(from string, id stream.ID, cover []string, decode func() (message.Message, error), frame []byte, typed bool, hint comm.FlushHint) {
	select {
	case n.relayQ <- relayItem{from: from, id: id, cover: cover, decode: decode, frame: frame, typed: typed, hint: hint}:
	case <-n.stop:
		comm.RecyclePayload(frame)
	}
}

// relayLoop republishes relay envelopes in arrival order (per-stream FIFO:
// one producer link, one queue, one loop) until the node stops, then
// drains the queue so pooled frames are returned.
func (n *Node) relayLoop() {
	for {
		select {
		case it := <-n.relayQ:
			n.republishRelay(it)
		case <-n.stop:
			for {
				select {
				case it := <-n.relayQ:
					comm.RecyclePayload(it.frame)
				default:
					return
				}
			}
		}
	}
}

// republishRelay fans one relayed frame out to the producer's cover list:
// members of this node's broadcast ring by one unbounded ring publish
// (oversized frames stream as chunked trains — the relay hop is what keeps
// them off O(consumers) pairwise links), the rest by refcounted shared
// frames, and this worker itself by direct injection. The hint was
// re-derived at arrival, so relay queueing time has already been charged
// against the producer's slack.
func (n *Node) republishRelay(it relayItem) {
	selfConsumes := false
	cover := make([]string, 0, len(it.cover))
	for _, c := range it.cover {
		if c == n.Name {
			selfConsumes = true
			continue
		}
		cover = append(cover, c)
	}
	bus, busPeers, pairPeers := n.splitBus(cover)
	// A self-consuming relay decodes before the republish: RepublishWithHint
	// takes ownership of the frame the decoder reads from (and may recycle
	// it), while the decoded payload is a pooled copy of its own, marked
	// Owned for the worker. A relay that only forwards never decodes at all
	// — the verbatim bytes go straight back out.
	var m message.Message
	injectSelf := false
	if selfConsumes && n.Worker != nil {
		if dm, err := it.decode(); err == nil {
			m, injectSelf = dm, true
		}
	}
	sent, _ := n.Transport.RepublishWithHint(bus, busPeers, pairPeers, it.frame, it.typed, it.id, it.hint)
	n.relayed.Add(uint64(sent))
	if injectSelf {
		_ = n.Worker.Inject(it.id, m)
	}
}

// Forwarded returns how many messages this node shipped to remote peers.
func (n *Node) Forwarded() uint64 { return n.forwarded.Load() }

// Unreached returns how many consumers this node's forwards did not reach.
func (n *Node) Unreached() uint64 { return n.unreached.Load() }

// Close tears the node down gracefully.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	if n.ctrlConn != nil {
		n.ctrlConn.Close()
	}
	n.mu.Lock()
	subs := make([]*busSub, 0, len(n.busIn))
	for _, s := range n.busIn {
		subs = append(subs, s)
	}
	n.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
	if n.bgroup != nil {
		n.bgroup.Close()
	}
	if n.Transport != nil {
		n.Transport.Close()
	}
	if n.Worker != nil {
		n.Worker.Stop()
	}
	n.wg.Wait()
}

// Kill tears the node down ungracefully — no deregistration, no draining —
// emulating a crashed worker process. The leader only learns of the death
// through heartbeat silence, exactly as it would for a real crash.
func (n *Node) Kill() { n.Close() }
