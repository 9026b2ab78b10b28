package comm_test

import (
	"testing"

	comm "github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/comm/inproc"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// TestReceivedPayloadOwnership: a []byte payload the read loop decodes into
// a pooled buffer arrives marked Owned; a value handed over an inproc link
// is shared with its sender and never is, whatever the sender's message
// said.
func TestReceivedPayloadOwnership(t *testing.T) {
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
			got := make(chan message.Message, 2)
			a := listen("a", func(_ string, _ stream.ID, m message.Message) { got <- m })
			b := listen("b", nil)
			target := a.Addr()
			if scheme != "tcp" {
				target = scheme + "://" + a.AddrOf(scheme)
			}
			if err := b.Dial(target); err != nil {
				t.Fatal(err)
			}
			m := message.Data(timestamp.New(1), []byte("payload"))
			m.Owned = true
			if err := b.SendWithHint("a", stream.NewID(), m, comm.FlushHint{}); err != nil {
				t.Fatal(err)
			}
			if err := b.SendWithHint("a", stream.NewID(), message.Watermark(timestamp.New(1)), comm.FlushHint{}); err != nil {
				t.Fatal(err)
			}
			data, wm := <-got, <-got
			if want := scheme != "inproc"; data.Owned != want {
				t.Fatalf("received []byte payload Owned = %v, want %v", data.Owned, want)
			}
			if wm.Owned {
				t.Fatal("a watermark arrived marked Owned")
			}
		})
	}
}
