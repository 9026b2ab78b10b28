package comm_test

import (
	"testing"
	"time"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/inproc"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestDialRegistersBothEnds: a rendezvous means registered on both ends.
// The moment Dial returns, the acceptor can send to the dialer and its
// Disconnect reaches the dialer, on every backend.
func TestDialRegistersBothEnds(t *testing.T) {
	for _, scheme := range []string{"tcp", "shm", "inproc"} {
		t.Run(scheme, func(t *testing.T) {
			listen := func(name string, h comm.Handler) *comm.Transport {
				var opts []comm.Option
				switch scheme {
				case "shm":
					opts = append(opts, comm.WithBackend(shmBackend(t), ""))
				case "inproc":
					opts = append(opts, comm.WithBackend(inproc.New(), ""))
				}
				tr, err := comm.Listen(name, "127.0.0.1:0", h, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(tr.Close)
				return tr
			}
			got := make(chan message.Message, 1)
			a := listen("a", nil)
			b := listen("b", func(_ string, _ stream.ID, m message.Message) { got <- m })
			target := a.Addr()
			if scheme != "tcp" {
				target = scheme + "://" + a.AddrOf(scheme)
			}
			if err := b.Dial(target); err != nil {
				t.Fatal(err)
			}
			if err := a.SendWithHint("b", stream.NewID(), message.Data(timestamp.New(1), []byte("hello")), comm.FlushHint{}); err != nil {
				t.Fatalf("acceptor cannot send right after Dial returned: %v", err)
			}
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("acceptor's send never reached the dialer")
			}
			if err := a.Disconnect("b"); err != nil {
				t.Fatal(err)
			}
			// The link is gone from the acceptor's table at once, so a
			// second Disconnect names an unknown peer.
			if err := a.Disconnect("b"); err == nil {
				t.Fatal("Disconnect of an unknown peer returned nil")
			}
			deadline := time.Now().Add(5 * time.Second)
			for len(b.Peers()) != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("dialer still sees peers %v after the acceptor disconnected", b.Peers())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestDialRefusesDuplicateName: the acceptor refuses a second peer under a
// name it already knows before replying, so that Dial fails instead of
// returning a dead link, and the registered peer keeps working.
func TestDialRefusesDuplicateName(t *testing.T) {
	got := make(chan message.Message, 1)
	a, err := comm.Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := comm.Listen("b", "127.0.0.1:0", func(_ string, _ stream.ID, m message.Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := comm.Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b1.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b2.Dial(a.Addr()); err == nil {
		t.Fatal("second dial under a registered name succeeded")
	}
	if len(b2.Peers()) != 0 {
		t.Fatalf("refused dialer registered peers %v", b2.Peers())
	}
	if err := a.SendWithHint("b", stream.NewID(), message.Data(timestamp.New(1), []byte("still here")), comm.FlushHint{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the registered peer stopped receiving after a refused duplicate")
	}
}
