// Package operator defines the build-time description of ERDOS operators
// (§4.2-§4.3 of the paper): their input and output streams, callbacks,
// state, parallelism, and deadline registrations. The worker runtime (package
// worker) animates these specs; the erdos façade provides typed sugar.
package operator

import (
	"fmt"
	"time"

	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/lattice"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
)

// DataCallback handles one data message received on input stream index
// `input`. Data callbacks may execute out of timestamp order.
type DataCallback func(ctx *Context, input int, msg message.Message)

// WatermarkCallback runs once per completed timestamp, in timestamp order,
// after every input stream's watermark has reached the timestamp.
type WatermarkCallback func(ctx *Context)

// HandlerCallback is a deadline exception handler (DEH, §5.4). It runs on a
// dedicated goroutine immediately upon a deadline miss.
type HandlerCallback func(ctx *HandlerContext)

// Spec is the build-time description of one operator.
type Spec struct {
	// Name uniquely identifies the operator within its graph.
	Name string
	// Inputs and Outputs list the operator's stream connections in the
	// positional order seen by callbacks.
	Inputs  []stream.ID
	Outputs []stream.ID
	// Mode selects intra-operator parallelism (lattice semantics).
	Mode lattice.Mode
	// NewState constructs the operator's system-managed state store. Nil
	// means the operator is stateless.
	NewState func() state.Store
	// OnData handles data messages; nil ignores them (counters still
	// update for deadline conditions).
	OnData DataCallback
	// OnWatermark handles completed timestamps.
	OnWatermark WatermarkCallback
	// AutoWatermark, when true (the default in the builder), makes the
	// runtime forward the watermark for a completed timestamp on every
	// output stream after OnWatermark returns, and commit the state view.
	AutoWatermark bool
	// Deadlines lists the operator's timestamp deadlines.
	Deadlines []TimestampDeadlineSpec
	// FrequencyDeadlines lists per-input-stream frequency deadlines.
	FrequencyDeadlines []FrequencyDeadlineSpec
	// Placement optionally pins the operator to a named worker.
	Placement string
}

// Validate performs local sanity checks.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("operator: empty name")
	}
	for _, d := range s.FrequencyDeadlines {
		if d.Input < 0 || d.Input >= len(s.Inputs) {
			return fmt.Errorf("operator %q: frequency deadline on input %d of %d", s.Name, d.Input, len(s.Inputs))
		}
	}
	for _, d := range s.Deadlines {
		if d.Output != AllOutputs && (d.Output < 0 || d.Output >= len(s.Outputs)) {
			return fmt.Errorf("operator %q: timestamp deadline on output %d of %d", s.Name, d.Output, len(s.Outputs))
		}
	}
	return nil
}

// AllOutputs registers a timestamp deadline's end condition over every
// output stream of the operator.
const AllOutputs = -1

// TimestampDeadlineSpec registers a timestamp deadline (§5.1): it bounds
// the wall-clock time between the DSC evaluated over received messages and
// the DEC evaluated over messages sent on the selected output stream.
type TimestampDeadlineSpec struct {
	// Name labels the deadline in diagnostics.
	Name string
	// Start is the DSC; nil means the first message for a timestamp.
	Start deadline.Condition
	// End is the DEC; nil means the first sent watermark for t' >= t.
	End deadline.Condition
	// Output selects which output stream's sends feed the DEC
	// (AllOutputs aggregates all of them).
	Output int
	// Value supplies the relative deadline Di. Use deadline.Static for
	// static deadlines or a *deadline.Dynamic fed by a deadline stream
	// from pDP (see Spec in package graph).
	Value deadline.Source
	// Policy selects Abort or Continue handler orchestration (§5.4).
	Policy deadline.Policy
	// Handler is the DEH; nil counts the miss without reacting.
	Handler HandlerCallback
}

// FrequencyDeadlineSpec registers a frequency deadline (§5.1) on one input
// stream: if the next watermark does not arrive within Value of the previous
// one, the runtime inserts a watermark with a low accuracy coordinate on
// that stream, letting the operator eagerly execute with partial input.
type FrequencyDeadlineSpec struct {
	Name string
	// Input is the positional index of the guarded input stream.
	Input int
	// Value supplies the maximum inter-watermark gap.
	Value deadline.Source
	// OnInsert, if non-nil, observes each inserted watermark (used by
	// the evaluation to count simulated arrivals).
	OnInsert func(t timestamp.Timestamp)
}

// Context is passed to data and watermark callbacks. It exposes the
// timestamp being processed, the working state view, the operator's output
// streams, and the deadline allocated to this timestamp by pDP (§4.3).
type Context struct {
	// Timestamp is the logical time of the callback invocation.
	Timestamp timestamp.Timestamp
	// Operator is the operator's name.
	Operator string

	stateView any
	outputs   []Output
	rel       time.Duration
	abs       time.Time
	hasDL     bool
	gate      *Gate
	payload   retainer
}

// Output is the runtime-provided hook for sending on one output stream.
type Output interface {
	Send(m message.Message) error
	StreamID() stream.ID
}

// retainer is the runtime's hold on a callback's delivered payload; it
// backs Context.Retain.
type retainer = interface {
	Retain() (release func())
}

// NewContext assembles a Context; it is exported for the worker runtime and
// for tests that drive callbacks directly. payload is the runtime's hold on
// the callback's delivered payload, nil when it needs no keeping alive.
func NewContext(op string, t timestamp.Timestamp, stateView any, outputs []Output, rel time.Duration, abs time.Time, hasDL bool, gate *Gate, payload retainer) *Context {
	return &Context{
		Timestamp: t, Operator: op, stateView: stateView,
		outputs: outputs, rel: rel, abs: abs, hasDL: hasDL, gate: gate,
		payload: payload,
	}
}

// State returns the working state view for this timestamp. All callbacks of
// one timestamp share the view; it is committed when the timestamp's
// watermark is released.
func (c *Context) State() any { return c.stateView }

// Retain keeps the payload delivered to this data callback valid past the
// callback's return, until release is called. The runtime owns a []byte
// payload the transport received and recycles it when the last callback it
// was delivered to returns; a callback that hands the payload to work
// outliving it — a goroutine, a timer — calls Retain first and has that
// work call release when done. Sending the payload onward with Send needs
// no Retain: a sent buffer is never recycled. Call Retain during the
// callback; release is idempotent, and both are no-ops for payloads the
// runtime does not own.
func (c *Context) Retain() (release func()) {
	if c.payload == nil {
		return func() {}
	}
	return c.payload.Retain()
}

// Deadline returns the relative deadline Di allocated to this timestamp,
// the absolute wall-clock instant it expires, and whether a deadline is
// armed. Operators use it to proactively pick implementations that fit
// (§5.3).
func (c *Context) Deadline() (rel time.Duration, abs time.Time, ok bool) {
	return c.rel, c.abs, c.hasDL
}

// Aborted reports whether this invocation was aborted by a deadline
// exception handler running under the Abort policy. Long-running anytime
// callbacks should poll it and return promptly.
func (c *Context) Aborted() bool { return c.gate != nil && c.gate.Aborted() }

// Done exposes the abort signal for select-based cancellation (anytime
// algorithms, speculative execution). It never fires for contexts without
// a gate.
func (c *Context) Done() <-chan struct{} {
	if c.gate == nil {
		return nil
	}
	return c.gate.Done()
}

// Send emits a data message with payload p at timestamp t on output i.
// Sends from an aborted invocation are suppressed and return nil.
func (c *Context) Send(i int, t timestamp.Timestamp, p any) error {
	if c.Aborted() {
		return nil
	}
	return c.output(i).Send(message.Data(t, p))
}

// SendWatermark emits a watermark for t on output i, subject to the same
// abort gating as Send.
func (c *Context) SendWatermark(i int, t timestamp.Timestamp) error {
	if c.Aborted() {
		return nil
	}
	return c.output(i).Send(message.Watermark(t))
}

// NumOutputs returns the operator's output stream count.
func (c *Context) NumOutputs() int { return len(c.outputs) }

func (c *Context) output(i int) Output {
	if i < 0 || i >= len(c.outputs) {
		panic(fmt.Sprintf("operator %q: output index %d out of range (%d outputs)", c.Operator, i, len(c.outputs)))
	}
	return c.outputs[i]
}

// HandlerContext is passed to deadline exception handlers (§5.4).
type HandlerContext struct {
	// Miss describes the missed deadline.
	Miss deadline.Miss
	// Operator is the operator's name.
	Operator string
	// Committed is a view of the last committed state for t' < t.
	Committed any
	// Dirty is the working view mutated by the partially-executed
	// proactive strategy for t (nil if none started). Under Abort the
	// handler amends it and the runtime commits the amended view; under
	// Continue the handler must treat it as read-only.
	Dirty any

	outputs []Output
}

// NewHandlerContext assembles a HandlerContext for the worker runtime.
func NewHandlerContext(op string, miss deadline.Miss, committed, dirty any, outputs []Output) *HandlerContext {
	return &HandlerContext{Miss: miss, Operator: op, Committed: committed, Dirty: dirty, outputs: outputs}
}

// Send emits a data message from the handler; handler sends bypass abort
// gating so reactive measures can always release output.
func (h *HandlerContext) Send(i int, t timestamp.Timestamp, p any) error {
	return h.output(i).Send(message.Data(t, p))
}

// SendWatermark emits a watermark from the handler, notifying downstream
// computation of the (reactively produced) completion of t.
func (h *HandlerContext) SendWatermark(i int, t timestamp.Timestamp) error {
	return h.output(i).Send(message.Watermark(t))
}

func (h *HandlerContext) output(i int) Output {
	if i < 0 || i >= len(h.outputs) {
		panic(fmt.Sprintf("operator %q handler: output index %d out of range (%d outputs)", h.Operator, i, len(h.outputs)))
	}
	return h.outputs[i]
}

// Gate carries the abort flag shared between a proactive invocation and the
// deadline machinery.
type Gate struct{ aborted chan struct{} }

// NewGate returns an open gate.
func NewGate() *Gate { return &Gate{aborted: make(chan struct{})} }

// Abort closes the gate; subsequent sends from the gated invocation are
// suppressed. Abort is idempotent.
func (g *Gate) Abort() {
	select {
	case <-g.aborted:
	default:
		close(g.aborted)
	}
}

// Aborted reports whether the gate was aborted.
func (g *Gate) Aborted() bool {
	select {
	case <-g.aborted:
		return true
	default:
		return false
	}
}

// Done exposes the abort signal for select-based cancellation in anytime
// algorithms.
func (g *Gate) Done() <-chan struct{} { return g.aborted }
