//go:build chaos

package cluster

import (
	"testing"
	"time"
)

// TestRelayFailoverDetectionBound is TestRelayFailoverMidFanout's real-time
// bound, kept out of tier-1: the leader detects the relay's death within
// twice the heartbeat period of the kill.
func TestRelayFailoverDetectionBound(t *testing.T) {
	const hb = 100 * time.Millisecond
	l, killed := relayFailover(t, nil, nil)
	e := waitForEvent(t, l, EventFailureDetected, "w2")
	if lat := e.At.Sub(killed); lat > 2*hb {
		t.Fatalf("detection latency %v exceeds 2x heartbeat period (%v)", lat, 2*hb)
	}
}
