package comm_test

import (
	"runtime"
	"testing"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// leakCycles is how many build/teardown cycles a leak-drift test runs.
const leakCycles = 5

// grewEveryCycle reports whether counts rose strictly on every step. One
// noisy step is normal (the runtime parks helper goroutines lazily);
// climbing after every cycle of an identical workload is the signature of
// a Close path that strands goroutines.
func grewEveryCycle(counts []int) bool {
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			return false
		}
	}
	return len(counts) > 1
}

// TestTransportTeardownNoGoroutineDrift builds a transport pair, echoes a
// burst of 4 KB frames across it, and closes both ends, leakCycles times
// per backend. The goroutine count after each teardown must not climb on
// every cycle.
func TestTransportTeardownNoGoroutineDrift(t *testing.T) {
	for _, backend := range []string{"tcp", "shm"} {
		t.Run(backend, func(t *testing.T) {
			counts := make([]int, 0, leakCycles)
			for cycle := 0; cycle < leakCycles; cycle++ {
				transportRoundtrips(t, backend == "shm", 32)
				counts = append(counts, runtime.NumGoroutine())
			}
			if grewEveryCycle(counts) {
				t.Fatalf("goroutines after each teardown = %v: grew on every cycle", counts)
			}
		})
	}
}

// transportRoundtrips runs n request/echo round trips over a fresh pair
// (over shm rings when ring is set, loopback TCP otherwise) and tears it
// down.
func transportRoundtrips(t *testing.T, ring bool, n int) {
	t.Helper()
	var aOpts, cOpts []comm.Option
	if ring {
		aOpts = []comm.Option{comm.WithBackend(shmBackend(t), "")}
		cOpts = []comm.Option{comm.WithBackend(shmBackend(t), "")}
	}
	echo := make(chan message.Message, n)
	a, err := comm.Listen("echo", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { echo <- m }, aOpts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, n)
	c, err := comm.Listen("cli", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) {
		comm.ReleaseMessage(m)
		done <- struct{}{}
	}, cOpts...)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	addr := a.Addr()
	if ring {
		addr = "shm://" + a.AddrOf("shm")
	}
	if err := c.Dial(addr); err != nil {
		a.Close()
		c.Close()
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	id := stream.NewID()
	for i := 0; i < n; i++ {
		if err := c.SendWithHint("echo", id, message.Data(timestamp.New(uint64(i+1)), payload), comm.FlushHint{}); err != nil {
			t.Fatal(err)
		}
		m := <-echo
		if err := a.SendWithHint("cli", id, m, comm.FlushHint{}); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	c.Close()
	a.Close()
}
