package state

import (
	"testing"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

type snapCounter struct{ N int }

func init() { RegisterState(&snapCounter{}) }

func newCounterStore() *Versioned {
	return NewVersioned(&snapCounter{}, func(v any) any {
		c := *v.(*snapCounter)
		return &c
	})
}

func commitN(s Store, ls ...uint64) {
	for _, l := range ls {
		s.Commit(timestamp.New(l), &snapCounter{N: int(l)})
	}
}

// TestSnapshotMultiVersion: a checkpoint carries the newest committed
// version plus the retained tail in ascending order, all strictly below the
// newest watermark.
func TestSnapshotMultiVersion(t *testing.T) {
	s := newCounterStore()
	commitN(s, 3, 5, 8)
	cp, ok := Snapshot(s)
	if !ok || !cp.HasState || cp.L != 8 {
		t.Fatalf("snapshot = %+v ok=%v, want newest at 8 with state", cp, ok)
	}
	if len(cp.Older) != 2 || cp.Older[0].L != 3 || cp.Older[1].L != 5 {
		t.Fatalf("older versions = %+v, want [3 5]", cp.Older)
	}
}

// TestSnapshotBoundsVersions: the tail is capped at MaxCheckpointVersions-1
// newest-first, so unbounded history cannot bloat heartbeats.
func TestSnapshotBoundsVersions(t *testing.T) {
	s := newCounterStore()
	for l := uint64(1); l <= 40; l++ {
		commitN(s, l)
	}
	cp, _ := Snapshot(s)
	if len(cp.Older) != MaxCheckpointVersions-1 {
		t.Fatalf("retained %d older versions, want %d", len(cp.Older), MaxCheckpointVersions-1)
	}
	if first := cp.Older[0].L; first != 40-uint64(MaxCheckpointVersions-1) {
		t.Fatalf("oldest retained version at %d, want %d", first, 40-uint64(MaxCheckpointVersions-1))
	}
}

// TestSnapshotClonesOnlyWhatItEncodes: a checkpoint of a deep history
// clones the newest version and the tail it carries, not every retained
// version.
func TestSnapshotClonesOnlyWhatItEncodes(t *testing.T) {
	clones := 0
	s := NewVersioned(&snapCounter{}, func(v any) any {
		clones++
		c := *v.(*snapCounter)
		return &c
	})
	for l := uint64(1); l <= 64; l++ {
		commitN(s, l)
	}
	cp, _ := Snapshot(s)
	if len(cp.Older) != MaxCheckpointVersions-1 || cp.L != 64 {
		t.Fatalf("checkpoint at %d carries %d older versions", cp.L, len(cp.Older))
	}
	if clones != MaxCheckpointVersions {
		t.Fatalf("Snapshot cloned %d versions, want %d", clones, MaxCheckpointVersions)
	}
}

// TestRestoreAtPicksConsistentCut: restore lands on the newest version at
// or below the cut, the store answers from it, and the returned fence is
// the restored watermark — not the cut itself when no version sits exactly
// on it.
func TestRestoreAtPicksConsistentCut(t *testing.T) {
	src := newCounterStore()
	commitN(src, 3, 5, 8)
	cp, _ := Snapshot(src)

	for _, tc := range []struct {
		atL, wantL uint64
		wantN      int
	}{
		{8, 8, 8},   // unconstrained: newest
		{6, 5, 5},   // cut between versions: newest at or below
		{5, 5, 5},   // cut exactly on a version
		{1, 3, 3},   // nothing old enough: oldest retained, best effort
		{100, 8, 8}, // cut beyond newest: newest
	} {
		dst := newCounterStore()
		gotL, err := RestoreAt(dst, cp, tc.atL)
		if err != nil {
			t.Fatal(err)
		}
		if gotL != tc.wantL {
			t.Fatalf("RestoreAt(%d) fence = %d, want %d", tc.atL, gotL, tc.wantL)
		}
		if pick := cp.PickL(tc.atL); pick != gotL {
			t.Fatalf("PickL(%d) = %d disagrees with RestoreAt fence %d", tc.atL, pick, gotL)
		}
		v, ts, ok := dst.Last()
		if !ok || ts.L != tc.wantL || v.(*snapCounter).N != tc.wantN {
			t.Fatalf("after RestoreAt(%d): last = %+v at %d ok=%v, want N=%d at %d",
				tc.atL, v, ts.L, ok, tc.wantN, tc.wantL)
		}
	}
}

// TestSnapshotRoundTrip: Restore reproduces the committed value at the
// checkpoint watermark in a fresh store.
func TestSnapshotRoundTrip(t *testing.T) {
	src := newCounterStore()
	commitN(src, 4, 7)
	cp, _ := Snapshot(src)

	dst := newCounterStore()
	if err := Restore(dst, cp); err != nil {
		t.Fatal(err)
	}
	v, ok := dst.Committed(timestamp.New(7))
	if !ok || v.(*snapCounter).N != 7 {
		t.Fatalf("restored committed(7) = %+v ok=%v, want N=7", v, ok)
	}
}

// TestSnapshotEncodeFailureDegrades: an unencodable state degrades to a
// watermark-only checkpoint instead of failing; RestoreAt then fences at
// min(cp.L, cut) without touching the store.
func TestSnapshotEncodeFailureDegrades(t *testing.T) {
	bad := NewVersioned(nil, func(v any) any { return v })
	// A function value is not gob-encodable.
	bad.Commit(timestamp.New(9), func() {})
	cp, ok := Snapshot(bad)
	if !ok || cp.HasState || cp.L != 9 || len(cp.Older) != 0 {
		t.Fatalf("degraded snapshot = %+v ok=%v, want watermark-only at 9", cp, ok)
	}
	dst := newCounterStore()
	if l, err := RestoreAt(dst, cp, 6); err != nil || l != 6 {
		t.Fatalf("RestoreAt on watermark-only = (%d, %v), want fence 6", l, err)
	}
	if l, err := RestoreAt(dst, cp, 12); err != nil || l != 9 {
		t.Fatalf("RestoreAt on watermark-only = (%d, %v), want fence 9", l, err)
	}
	if _, _, committed := dst.Last(); committed {
		t.Fatal("watermark-only restore committed state into the store")
	}
}

// TestNoneStoreSnapshot: stateless stores checkpoint as watermark-only.
func TestNoneStoreSnapshot(t *testing.T) {
	n := NewNone()
	n.Commit(timestamp.New(5), nil)
	cp, ok := Snapshot(n)
	if !ok || cp.HasState || cp.L != 5 {
		t.Fatalf("stateless snapshot = %+v ok=%v, want watermark-only at 5", cp, ok)
	}
}
