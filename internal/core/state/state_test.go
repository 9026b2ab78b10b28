package state

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

type counter struct{ N int }

func cloneCounter(c counter) counter { return c }

func ts(l uint64) timestamp.Timestamp { return timestamp.New(l) }

func TestVersionedViewIsolation(t *testing.T) {
	s := Typed(counter{N: 0}, cloneCounter)
	v1 := s.View(ts(1)).(counter)
	v1.N = 10
	// Mutating a view must not be visible to other views before commit.
	v2 := s.View(ts(1)).(counter)
	if v2.N != 0 {
		t.Fatalf("uncommitted mutation leaked: %+v", v2)
	}
	s.Commit(ts(1), v1)
	if got, ok := s.Committed(ts(1)); !ok || got.(counter).N != 10 {
		t.Fatalf("Committed(1) = %v, %v", got, ok)
	}
}

func TestVersionedStrictViewSemantics(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	s.Commit(ts(1), counter{N: 1})
	s.Commit(ts(2), counter{N: 2})
	// The view for t derives from the committed state at t' < t, so the
	// view for 2 sees version 1, not version 2 (§5.4).
	if v := s.View(ts(2)).(counter); v.N != 1 {
		t.Fatalf("View(2) = %+v, want N=1", v)
	}
	if v := s.View(ts(3)).(counter); v.N != 2 {
		t.Fatalf("View(3) = %+v, want N=2", v)
	}
	if v := s.View(ts(1)).(counter); v.N != 0 {
		t.Fatalf("View(1) = %+v, want initial", v)
	}
}

func TestVersionedOutOfOrderCommits(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	s.Commit(ts(5), counter{N: 5})
	s.Commit(ts(3), counter{N: 3})
	s.Commit(ts(4), counter{N: 4})
	for l := uint64(3); l <= 5; l++ {
		got, ok := s.Committed(ts(l))
		if !ok || got.(counter).N != int(l) {
			t.Fatalf("Committed(%d) = %v, %v", l, got, ok)
		}
	}
	if _, ok := s.Committed(ts(2)); ok {
		t.Fatal("Committed(2) should report no version")
	}
}

func TestVersionedRecommitReplaces(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	s.Commit(ts(1), counter{N: 1})
	s.Commit(ts(1), counter{N: 99}) // DEH amends the dirty state for t
	got, _ := s.Committed(ts(1))
	if got.(counter).N != 99 {
		t.Fatalf("recommit did not replace: %+v", got)
	}
	if s.Versions() != 1 {
		t.Fatalf("Versions = %d, want 1", s.Versions())
	}
}

func TestVersionedLast(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	if _, _, ok := s.Last(); ok {
		t.Fatal("Last on empty store should report !ok")
	}
	s.Commit(ts(2), counter{N: 2})
	s.Commit(ts(7), counter{N: 7})
	v, at, ok := s.Last()
	if !ok || v.(counter).N != 7 || !at.Equal(ts(7)) {
		t.Fatalf("Last = %v @ %v, %v", v, at, ok)
	}
}

func TestVersionedGC(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	for l := uint64(1); l <= 10; l++ {
		s.Commit(ts(l), counter{N: int(l)})
	}
	s.GC(ts(8))
	if s.Versions() != 3 { // 8, 9, 10
		t.Fatalf("Versions after GC = %d, want 3", s.Versions())
	}
	// Committed(8) must still answer after GC.
	got, ok := s.Committed(ts(8))
	if !ok || got.(counter).N != 8 {
		t.Fatalf("Committed(8) after GC = %v, %v", got, ok)
	}
}

func TestVersionedCloneDeepCopies(t *testing.T) {
	type sliceState struct{ Items []int }
	s := Typed(sliceState{}, func(v sliceState) sliceState {
		return sliceState{Items: append([]int(nil), v.Items...)}
	})
	v := s.View(ts(1)).(sliceState)
	v.Items = append(v.Items, 1, 2)
	s.Commit(ts(1), v)
	w := s.View(ts(2)).(sliceState)
	w.Items[0] = 99
	got, _ := s.Committed(ts(1))
	if got.(sliceState).Items[0] != 1 {
		t.Fatal("mutation through a later view corrupted a committed version")
	}
}

func TestNoneStore(t *testing.T) {
	s := NewNone()
	if v := s.View(ts(1)); v != nil {
		t.Fatalf("None.View = %v", v)
	}
	s.Commit(ts(3), nil)
	s.Commit(ts(1), nil) // lower timestamp must not regress Last
	_, at, ok := s.Last()
	if !ok || !at.Equal(ts(3)) {
		t.Fatalf("None.Last = %v, %v", at, ok)
	}
}

func TestConcurrentViewsAndCommits(t *testing.T) {
	s := Typed(counter{}, cloneCounter)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := uint64(g*200 + i + 1)
				v := s.View(ts(l)).(counter)
				v.N = int(l)
				s.Commit(ts(l), v)
				if _, ok := s.Committed(ts(l)); !ok {
					t.Errorf("Committed(%d) missing right after commit", l)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Versions() != 1600 {
		t.Fatalf("Versions = %d, want 1600", s.Versions())
	}
}

// Property: for any random commit order, Committed(t) returns the value of
// the greatest committed timestamp <= t (a model-based check against a map).
func TestQuickCommittedMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		s := Typed(counter{N: -1}, cloneCounter)
		model := map[uint64]int{}
		perm := r.Perm(20)
		for _, p := range perm[:10] {
			l := uint64(p + 1)
			s.Commit(ts(l), counter{N: int(l)})
			model[l] = int(l)
		}
		for q := uint64(0); q <= 21; q++ {
			want, wantOK := -1, false
			for l, n := range model {
				if l <= q && (!wantOK || n > want) {
					want, wantOK = n, true
				}
			}
			got, ok := s.Committed(ts(q))
			if ok != wantOK {
				t.Fatalf("trial %d: Committed(%d) ok=%v want %v", trial, q, ok, wantOK)
			}
			if ok && got.(counter).N != want {
				t.Fatalf("trial %d: Committed(%d) = %d, want %d", trial, q, got.(counter).N, want)
			}
		}
		// GC at a random cut answers identically at and above the cut.
		cut := uint64(r.Intn(22))
		before := make([]int, 22)
		for q := range before {
			got, _ := s.Committed(ts(uint64(q)))
			before[q] = got.(counter).N
		}
		s.GC(ts(cut))
		for q := cut; q <= 21; q++ {
			if got, _ := s.Committed(ts(q)); got.(counter).N != before[q] {
				t.Fatalf("trial %d: Committed(%d) = %d after GC(%d), want %d", trial, q, got.(counter).N, cut, before[q])
			}
		}
	}
}

// TestVersionedCommitGCAllocatesNothing: once the version window has grown
// to the retained history, a commit plus the GC that follows it trims in
// place instead of copying the surviving versions into a new slice.
func TestVersionedCommitGCAllocatesNothing(t *testing.T) {
	const history = 64
	s := NewVersioned(&counter{}, func(v any) any { c := *v.(*counter); return &c })
	val := &counter{N: 1}
	l := uint64(0)
	step := func() {
		l++
		s.Commit(ts(l), val)
		if l > history {
			s.GC(ts(l - history))
		}
	}
	for i := 0; i < 4*history; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state Commit+GC allocates %.1f times, want 0", allocs)
	}
	if n := s.Versions(); n != history+1 {
		t.Fatalf("Versions = %d, want %d", n, history+1)
	}
}

// --- LogState ---

type waypoints struct{ Points []int }

func newLogStore() *LogState {
	return NewLog(
		func() any { return &waypoints{} },
		func(st, op any) {
			w := st.(*waypoints)
			w.Points = append(w.Points, op.(int))
		},
	)
}

func TestLogStateRecordAndCommit(t *testing.T) {
	s := newLogStore()
	v := s.View(ts(1)).(*LogView)
	v.Record(10)
	v.Record(20)
	if got := v.Value.(*waypoints).Points; len(got) != 2 || got[1] != 20 {
		t.Fatalf("Record did not apply: %v", got)
	}
	s.Commit(ts(1), v)
	got, ok := s.Committed(ts(1))
	if !ok || len(got.(*waypoints).Points) != 2 {
		t.Fatalf("Committed(1) = %v, %v", got, ok)
	}
}

func TestLogStateReplayOrder(t *testing.T) {
	s := newLogStore()
	// Commit out of order; replay must follow timestamp order.
	v2 := s.View(ts(2)).(*LogView)
	v2.Record(200)
	s.Commit(ts(2), v2)
	v1 := s.View(ts(1)).(*LogView)
	v1.Record(100)
	s.Commit(ts(1), v1)
	got, _ := s.Committed(ts(2))
	pts := got.(*waypoints).Points
	if len(pts) != 2 || pts[0] != 100 || pts[1] != 200 {
		t.Fatalf("replay order wrong: %v", pts)
	}
}

func TestLogStateViewStrictness(t *testing.T) {
	s := newLogStore()
	v1 := s.View(ts(1)).(*LogView)
	v1.Record(1)
	s.Commit(ts(1), v1)
	// View(1) must not include ops committed at 1.
	if got := s.View(ts(1)).(*LogView).Value.(*waypoints).Points; len(got) != 0 {
		t.Fatalf("View(1) includes own-timestamp ops: %v", got)
	}
	if got := s.View(ts(2)).(*LogView).Value.(*waypoints).Points; len(got) != 1 {
		t.Fatalf("View(2) = %v, want one op", got)
	}
}

func TestLogStateDiscardedViewHasNoEffect(t *testing.T) {
	s := newLogStore()
	v := s.View(ts(1)).(*LogView)
	v.Record(1)
	s.Discard(ts(1), v)
	if _, ok := s.Committed(ts(1)); ok {
		t.Fatal("discarded view leaked into committed state")
	}
}

func TestLogStateGCFoldsEntries(t *testing.T) {
	s := newLogStore()
	for l := uint64(1); l <= 5; l++ {
		v := s.View(ts(l)).(*LogView)
		v.Record(int(l))
		s.Commit(ts(l), v)
	}
	s.GC(ts(4))
	if s.Versions() != 3 { // folded(1..3), 4, 5
		t.Fatalf("Versions after GC = %d, want 3", s.Versions())
	}
	got, _ := s.Committed(ts(5))
	if pts := got.(*waypoints).Points; len(pts) != 5 || pts[4] != 5 {
		t.Fatalf("GC corrupted replay: %v", pts)
	}
}
