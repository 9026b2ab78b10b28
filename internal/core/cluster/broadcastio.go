// Broadcast-ring plumbing for the data plane: each host-local worker owns
// one SPMC broadcast ring (created at Join), and consumers of its fanout
// routes attach as readers. One publish by the producer covers every
// attached consumer; consumers the ring cannot serve — different host, no
// ring, or evicted for lagging — are covered by the pairwise shared-frame
// path, so the ring is purely an optimization over an always-correct
// fallback.
package cluster

import (
	"sync"

	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// busReaderSlots is the reader capacity of a node's broadcast ring. The
// ring format supports up to 64; a worker rarely has more same-host
// consumers than this.
const busReaderSlots = 16

// busMaxBytes is the largest frame the node publishes onto its broadcast
// ring: the writer chunks frames larger than a quarter ring, so frames up
// to 4x the ring still stream through it, and anything bigger spills to
// pairwise links (counted by the Bus).
func busMaxBytes(b *shm.Backend) int {
	n := b.RingBytes
	if n == 0 {
		n = shm.DefaultRingBytes
	}
	return 4 * n
}

// busSub is this node's subscription on one producer's broadcast ring.
// The ring carries every fanout frame the producer publishes, including
// streams this node does not consume; want filters delivery.
type busSub struct {
	reader *shm.BusReader
	want   streamSet
}

func (s *busSub) close() { s.reader.Close() }

// streamSet is a mutex-guarded stream-ID set: the read loop consults it
// per frame, reschedules swap in a rebuilt set.
type streamSet struct {
	mu sync.Mutex
	v  map[stream.ID]bool
}

func (a *streamSet) set(m map[stream.ID]bool) {
	a.mu.Lock()
	a.v = m
	a.mu.Unlock()
}

func (a *streamSet) has(id stream.ID) bool {
	a.mu.Lock()
	ok := a.v[id]
	a.mu.Unlock()
	return ok
}

// syncBusReaders reconciles the node's ring subscriptions with sched:
// join the broadcast ring of every same-host producer whose fanout routes
// we consume, update the wanted-stream filter of rings we already sit on,
// and detach from rings the schedule no longer routes to us. A failed
// join is not an error — the producer's pairwise fallback covers us.
func (n *Node) syncBusReaders(sched Schedule) {
	if n.hostID == "" {
		return
	}
	want := make(map[string]map[stream.ID]bool)
	for _, r := range sched.Routes {
		if !r.Broadcast || r.Producer == n.Name {
			continue
		}
		mine := false
		for _, c := range r.Consumers {
			if c == n.Name {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		// The stream's ring source on this host: the producer itself when
		// it lives here, otherwise the relay elected to republish it (the
		// relay's own ring carries the republished frames). No source, no
		// ring membership — the pairwise path covers us either way.
		src := ""
		if sched.PeerHosts[r.Producer] == n.hostID {
			src = r.Producer
		} else if rel := sched.PeerRelay[r.Stream][n.hostID]; rel != "" && rel != n.Name {
			src = rel
		}
		if src == "" || sched.PeerBShm[src] == "" {
			continue
		}
		m := want[src]
		if m == nil {
			m = make(map[stream.ID]bool)
			want[src] = m
		}
		m[stream.ID(r.Stream)] = true
	}

	n.mu.Lock()
	var drop []*busSub
	for p, sub := range n.busIn {
		if streams, ok := want[p]; ok {
			sub.want.set(streams)
			delete(want, p)
		} else {
			drop = append(drop, sub)
			delete(n.busIn, p)
		}
	}
	n.mu.Unlock()
	for _, sub := range drop {
		sub.close()
	}

	for p, streams := range want {
		rd, err := shm.JoinBroadcast(sched.PeerBShm[p], n.Name)
		if err != nil {
			continue
		}
		sub := &busSub{reader: rd}
		sub.want.set(streams)
		n.mu.Lock()
		n.busIn[p] = sub
		n.mu.Unlock()
		n.wg.Add(1)
		go func(p string, sub *busSub) {
			defer n.wg.Done()
			n.busReadLoop(p, sub)
		}(p, sub)
	}
}

// busReadLoop decodes frames off one producer's broadcast ring and
// injects the streams this node consumes; the worker takes each decoded
// payload over and recycles it. It exits when the ring dies —
// producer gone, node closing, or this reader evicted for lagging — and
// detaches, at which point the producer's MemberSet no longer lists us
// and its very next fanout falls back to our pairwise link.
func (n *Node) busReadLoop(producer string, sub *busSub) {
	for {
		id, m, err := comm.ReadFrame(sub.reader)
		if err != nil {
			break
		}
		if !sub.want.has(id) {
			comm.ReleaseMessage(m)
			continue
		}
		_ = n.Worker.Inject(id, m)
	}
	sub.reader.Close()
	n.mu.Lock()
	if n.busIn[producer] == sub {
		delete(n.busIn, producer)
	}
	n.mu.Unlock()
}
