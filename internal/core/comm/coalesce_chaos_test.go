//go:build chaos

package comm

import "testing"

// TestCoalescingNeverFlushesLate is the real-time half of the
// deadline-stress test: holding hinted frames for company must never push
// a flush past a held frame's FlushBy. It bounds scheduling delay, so it
// runs only under -tags chaos (make chaos), not in the tier-1 suite.
func TestCoalescingNeverFlushesLate(t *testing.T) {
	if _, _, late := hintedBursts(t); late != 0 {
		t.Fatalf("lateFlushes = %d, want 0 (coalescing violated deadline slack)", late)
	}
}
