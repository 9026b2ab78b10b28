// Package message defines the two kinds of messages that flow along ERDOS
// streams (§4.2 of the paper):
//
//   - DataMessage Mt: a payload of the stream's type annotated with a
//     timestamp t.
//   - WatermarkMessage Wt: a timestamp t conveying that all messages with
//     t' <= t have been sent on the stream, which unlocks computation that
//     requires synchronized, complete input.
//
// The runtime is untyped internally (payloads travel as `any`); the typed
// stream API in package stream restores compile-time type checking at the
// operator boundary.
package message

import (
	"fmt"

	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// Kind discriminates data messages from watermark messages.
type Kind uint8

const (
	// KindData identifies a DataMessage (Mt).
	KindData Kind = iota
	// KindWatermark identifies a WatermarkMessage (Wt).
	KindWatermark
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindWatermark:
		return "watermark"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is a single unit of communication on a stream: either a data
// message carrying a payload or a watermark. Messages are immutable once
// sent; intra-worker communication passes them by reference (zero copy).
type Message struct {
	Kind      Kind
	Timestamp timestamp.Timestamp
	// Payload is nil for watermark messages. For data messages it holds a
	// value of the stream's element type.
	Payload any
	// Owned marks a data message whose []byte payload the transport's
	// receive path decoded into a pooled buffer that nothing else
	// references. Only that path sets it. Worker.Inject takes such a buffer
	// over and returns it to the pool once the last local callback it was
	// delivered to has returned; callbacks and subscribers never see the
	// mark.
	Owned bool
}

// Data returns a data message Mt with payload p and timestamp t.
func Data(t timestamp.Timestamp, p any) Message {
	return Message{Kind: KindData, Timestamp: t, Payload: p}
}

// Watermark returns a watermark message Wt for timestamp t.
func Watermark(t timestamp.Timestamp) Message {
	return Message{Kind: KindWatermark, Timestamp: t}
}

// Top returns the final watermark, closing the stream.
func Top() Message { return Watermark(timestamp.Top()) }

// IsData reports whether m is a data message.
func (m Message) IsData() bool { return m.Kind == KindData }

// IsWatermark reports whether m is a watermark message.
func (m Message) IsWatermark() bool { return m.Kind == KindWatermark }

// IsTop reports whether m is the final watermark.
func (m Message) IsTop() bool {
	return m.Kind == KindWatermark && m.Timestamp.IsTop()
}

// String renders the message for diagnostics.
func (m Message) String() string {
	if m.IsWatermark() {
		return fmt.Sprintf("W%v", m.Timestamp)
	}
	return fmt.Sprintf("M%v(%T)", m.Timestamp, m.Payload)
}
