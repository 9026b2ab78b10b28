// Payload pooling for the receive path. Before this existed every received
// frame made one allocation for its body ([]byte payload on the raw path,
// transient codec input on the typed path) — the dominant cost of the 4 KB
// round-trip profile. Bodies now come from size-classed pools:
//
//   - typed-frame bodies are provably transient (codecs must copy anything
//     they keep — see Codec.Unmarshal), so the read loop recycles them as
//     soon as the body is decoded;
//   - raw []byte payloads escape into handlers, so the decoded message is
//     marked Owned. The worker runtime, not the operator, owns such a
//     buffer once it is injected: it counts the local callbacks the buffer
//     was delivered to and recycles it when the last one returns, unless a
//     callback retained it (Context.Retain) or sent it onward, which pins it
//     for the garbage collector. The contract for a callback is the one
//     Codec.Unmarshal has: a delivered []byte is valid until the callback
//     returns.
//
// Pooling is safe-by-default: a payload that is never recycled — a value
// delivered over inproc://, a handler that keeps what it receives — is
// simply garbage-collected, exactly as before.
package comm

import (
	"math/bits"
	"sync"

	"github.com/erdos-go/erdos/internal/core/message"
)

// Payload size classes are powers of two from 512 B up to maxFramePayload;
// smaller requests round up to the smallest class, larger ones bypass the
// pool entirely.
const (
	minPayloadClass = 9  // 512 B
	maxPayloadClass = 26 // 64 MiB == maxFramePayload
)

var payloadPools [maxPayloadClass + 1]sync.Pool

// headerPool recycles the *[]byte boxes the payload pools store. Without it
// every RecyclePayload heap-allocates a fresh slice header just to Put it
// (the classic sync.Pool-of-slices escape): one alloc per received frame.
// Headers circulate between the two pools instead — Acquire frees one here,
// Recycle takes it back — so the steady-state receive path allocates
// nothing.
var headerPool sync.Pool

func payloadClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minPayloadClass {
		c = minPayloadClass
	}
	return c
}

// AcquirePayload returns a []byte of length n backed by a pooled buffer
// whose capacity is the next power-of-two size class. Contents are not
// zeroed — callers overwrite the full length (io.ReadFull on the receive
// path). Requests beyond the frame size limit fall back to plain make.
func AcquirePayload(n int) []byte {
	if n <= 0 {
		return []byte{}
	}
	if n > maxFramePayload {
		return make([]byte, n)
	}
	c := payloadClass(n)
	if v := payloadPools[c].Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil
		headerPool.Put(h)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// RecyclePayload returns a buffer obtained from AcquirePayload to its size
// class. Buffers with a capacity that is not one of the pool's classes
// (including any slice not from AcquirePayload) are silently dropped. A
// slice from elsewhere whose capacity happens to be a class size would be
// taken, so only code that owns b may call this, and must not touch the
// slice afterwards.
func RecyclePayload(b []byte) {
	c := cap(b)
	if c < 1<<minPayloadClass || c > 1<<maxPayloadClass || c&(c-1) != 0 {
		return
	}
	h, _ := headerPool.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:c]
	payloadPools[bits.TrailingZeros(uint(c))].Put(h)
}

// ReleaseMessage recycles m's payload if it is a pooled []byte; other
// payload kinds are untouched. Transport-level handlers that fully consume
// a raw frame themselves, without injecting it into a worker, can call this
// to return the body to the pool.
func ReleaseMessage(m message.Message) {
	if b, ok := m.Payload.([]byte); ok {
		RecyclePayload(b)
	}
}

// StructPool recycles decoded payload structs for codecs and handlers that
// manage payload ownership explicitly (the decoded-value analogue of
// AcquirePayload/RecyclePayload). Get returns a zero or previously-Put
// value; Put stores it for reuse. The caller is responsible for resetting
// any state it does not overwrite.
type StructPool[T any] struct {
	p sync.Pool
}

// Get returns a pooled *T, allocating when the pool is empty.
func (sp *StructPool[T]) Get() *T {
	if v := sp.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// Put returns v for reuse by a later Get.
func (sp *StructPool[T]) Put(v *T) {
	if v != nil {
		sp.p.Put(v)
	}
}
