package fixture

import (
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
)

// Delivered-payload escapes: a data callback's []byte payload is recycled
// when the callback returns, so storing it in the state view, sending it on
// a channel or capturing it in an unretained goroutine is flagged; copies,
// reads and ctx.Send are not.

type bufState struct {
	Last []byte
	All  [][]byte
	Copy []byte
	Sum  int
}

func use([]byte) {}

func payloadEscapes(ch chan []byte) {
	g := erdos.NewGraph()
	s := erdos.IngestStream[[]byte](g, "s")
	out := erdos.AddStream[[]byte](g, "out")
	op := g.Operator("x")
	o := erdos.Output(op, out)
	erdos.Input(op, s, func(ctx *erdos.Context, t erdos.Timestamp, b []byte) {
		st := erdos.StateOf[*bufState](ctx)
		st.Last = b                      // want "stores its delivered"
		st.All = append(st.All, b[2:])   // want "stores its delivered"
		ctx.State().(*bufState).Last = b // want "stores its delivered"
		sub := b[1:3]
		st.Last = sub // want "stores its delivered"

		st.Copy = append([]byte(nil), b...) // a copy
		st.Sum += int(b[0])                 // a byte, not the buffer
		tag := string(b)                    // strings copy
		_ = tag

		ch <- b // want "sends its delivered"
		ch <- append([]byte(nil), b...)

		go use(b)              // want "goroutine with no ctx.Retain"
		go func() { use(b) }() // want "goroutine with no ctx.Retain"
		go use(nil)

		_ = ctx.Send(o, t, b) // a transfer the runtime tracks

		release := ctx.Retain()
		go func() {
			defer release()
			use(b)
		}()
	})
	op.Build()
}

func opDataPayload(ch chan []byte) operator.Spec {
	return operator.Spec{
		OnData: func(ctx *operator.Context, _ int, m message.Message) {
			p := m.Payload.([]byte)
			ch <- p                                           // want "sends its delivered"
			ctx.State().(*bufState).Last = m.Payload.([]byte) // want "stores its delivered"
			go func() { use(m.Payload.([]byte)) }()           // want "goroutine with no ctx.Retain"
			go func() { _ = m.Timestamp }()

			//erdos:allow statetxn fixture exercises the suppression path
			ch <- p // wantAllowed "sends its delivered"
		},
	}
}
