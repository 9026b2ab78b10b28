// Checkpoint/restore for time-versioned stores: the failover path ships the
// recent committed versions of each operator's state to the leader as opaque
// gob blobs, and a surviving worker that adopts the operator commits one of
// them back at its logical time — execution resumes from the last consistent
// watermark instead of from scratch (§3.4, §5.3).
//
// Checkpoints are multi-version because the newest commit is not always a
// safe restore point: an output the failed worker produced after a consumer
// last caught up may have been lost in flight, in which case the adopter
// must restart far enough back to regenerate it. The leader picks the cut
// (the minimum surviving-consumer frontier); RestoreAt honors it with the
// newest retained version at or below it.
package state

import (
	"bytes"
	"encoding/gob"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// MaxCheckpointVersions bounds how many committed versions one checkpoint
// carries. The needed rewind is the consumer-frontier staleness (roughly one
// heartbeat of traffic), so a short tail suffices. Exported so the cluster
// control plane can apply the same bound when it splices heartbeat-shipped
// checkpoint deltas onto its retained snapshots.
const MaxCheckpointVersions = 16

// Version is one committed state version inside a Checkpoint.
type Version struct {
	// L is the logical time of the commit.
	L uint64
	// State is the gob-encoded committed value.
	State []byte
}

// Checkpoint is a portable snapshot of one operator store. Only logical
// coordinates are carried: the runtime checkpoints at watermark commits,
// which happen at plain logical times.
type Checkpoint struct {
	// L is the logical time of the newest committed version.
	L uint64
	// HasState reports whether State holds an encoded value. It is false
	// for stateless stores and for state types gob cannot encode (e.g.
	// only unexported fields) — recovery then degrades to restarting the
	// operator from its initial state at watermark L, still fenced by the
	// restored watermark so no input is double-applied.
	HasState bool
	// State is the gob-encoded newest committed value when HasState.
	State []byte
	// Older holds earlier committed versions in ascending logical-time
	// order (all strictly below L), enabling restore at a consistent cut
	// older than the newest commit.
	Older []Version
}

// snapEnvelope wraps the committed value so gob records its concrete type.
// State types crossing a checkpoint must be registered with RegisterState.
type snapEnvelope struct {
	Value any
}

// RegisterState registers a concrete operator-state type for
// checkpoint encoding, like gob.Register.
func RegisterState(v any) { gob.Register(v) }

// TimedValue is one committed version exposed by a VersionLister.
type TimedValue struct {
	TS    timestamp.Timestamp
	Value any
}

// VersionLister is an optional Store extension: stores that retain their
// committed history expose its newest n versions strictly below t (newest
// last, values independently cloned) so Snapshot can build multi-version
// checkpoints without copying the rest.
type VersionLister interface {
	ListVersions(t timestamp.Timestamp, n int) []TimedValue
}

func encodeValue(v any) ([]byte, bool) {
	if v == nil {
		return nil, false
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapEnvelope{Value: v}); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// Snapshot captures s's recent committed versions, newest in L/State and a
// bounded tail of older ones in Older. ok is false when nothing has been
// committed yet (there is no watermark to restore from, so the operator
// would restart fresh anyway). Encoding failures degrade to a
// watermark-only checkpoint rather than failing recovery.
func Snapshot(s Store) (cp Checkpoint, ok bool) {
	v, ts, committed := s.Last()
	if !committed {
		return Checkpoint{}, false
	}
	cp.L = ts.L
	if v != nil {
		if b, encOK := encodeValue(v); encOK {
			cp.HasState, cp.State = true, b
		}
	}
	lister, isLister := s.(VersionLister)
	if !cp.HasState || !isLister {
		return cp, true
	}
	var older []Version
	for _, tv := range lister.ListVersions(ts, MaxCheckpointVersions-1) {
		if b, encOK := encodeValue(tv.Value); encOK {
			older = append(older, Version{L: tv.TS.L, State: b})
		}
	}
	cp.Older = older
	return cp, true
}

// Restore commits cp's newest value into s at logical time cp.L, so
// Committed and View answer exactly as they did on the failed worker at
// that watermark. Watermark-only checkpoints (HasState false) leave the
// store untouched.
func Restore(s Store, cp Checkpoint) error {
	_, err := RestoreAt(s, cp, cp.L)
	return err
}

// allVersions returns the checkpoint's retained versions in ascending
// logical-time order, the newest (L/State) last.
func (cp Checkpoint) allVersions() []Version {
	if !cp.HasState {
		return cp.Older
	}
	return append(append([]Version(nil), cp.Older...), Version{L: cp.L, State: cp.State})
}

// pickVersion selects the newest retained version at or below atL, falling
// back to the oldest available when nothing is old enough.
func pickVersion(versions []Version, atL uint64) int {
	pick := 0
	for i, v := range versions {
		if v.L <= atL {
			pick = i
		}
	}
	return pick
}

// PickL returns the logical time RestoreAt would fence at for the given
// cut, without decoding anything. The leader uses it to predict an orphaned
// consumer's actual restore point when computing its (equally orphaned)
// producers' cuts: the producer must regenerate everything after what the
// consumer really restores, which may be older than the cut when the
// checkpoint has no version exactly at it.
func (cp Checkpoint) PickL(atL uint64) uint64 {
	versions := cp.allVersions()
	if len(versions) == 0 {
		if atL < cp.L {
			return atL
		}
		return cp.L
	}
	return versions[pickVersion(versions, atL)].L
}

// RestoreAt commits the newest retained version at or below atL into s and
// returns the logical time actually restored — the watermark the adopting
// runtime must fence inputs at, so everything after it is re-processed and
// re-emitted. When the checkpoint retains nothing old enough, the oldest
// available version is used (best effort: the un-regenerable prefix
// surfaces downstream as deadline misses, not silent corruption). For
// watermark-only checkpoints the fence is min(cp.L, atL) and the store is
// left untouched.
func RestoreAt(s Store, cp Checkpoint, atL uint64) (uint64, error) {
	versions := cp.allVersions()
	if len(versions) == 0 {
		return cp.PickL(atL), nil
	}
	pick := pickVersion(versions, atL)
	var env snapEnvelope
	if err := gob.NewDecoder(bytes.NewReader(versions[pick].State)).Decode(&env); err != nil {
		return 0, err
	}
	s.Commit(timestamp.New(versions[pick].L), env.Value)
	return versions[pick].L, nil
}
