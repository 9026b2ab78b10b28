package comm_test

import (
	"testing"
	"time"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

func TestShmDisconnectPropagates(t *testing.T) {
	a, err := comm.Listen("a", "127.0.0.1:0", nil, comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := comm.Listen("b", "127.0.0.1:0", nil, comm.WithBackend(shmBackend(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial("shm://" + a.AddrOf("shm")); err != nil {
		t.Fatal(err)
	}
	if err := b.SendWithHint("a", stream.NewID(), message.Data(timestamp.New(1), []byte("x")), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Disconnect("b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if len(b.Peers()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dialer still sees peers %v after acceptor disconnect", b.Peers())
		}
		time.Sleep(time.Millisecond)
	}
}
