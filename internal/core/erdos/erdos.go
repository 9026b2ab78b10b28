// Package erdos is the public façade of the runtime: a typed, ergonomic API
// for building and running D3 dataflow graphs (§4 of the paper).
//
// A program builds a Graph of typed streams and operators, registers
// callbacks and deadlines, and runs it either locally (every operator in one
// worker) or across a cluster (package cluster). Example:
//
//	g := erdos.NewGraph()
//	frames := erdos.IngestStream[Frame](g, "camera")
//	detections := erdos.AddStream[[]Obstacle](g, "obstacles")
//	op := g.Operator("detector")
//	in := erdos.Input(op, frames, func(ctx *erdos.Context, t erdos.Timestamp, f Frame) { ... })
//	out := erdos.Output(op, detections)
//	op.OnWatermark(func(ctx *erdos.Context) { ... })
//	op.Build()
//	rt, _ := g.RunLocal()
//	defer rt.Stop()
package erdos

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/core/deadline"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/lattice"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/timestamp"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// Re-exported core types, so applications import a single package.
type (
	// Timestamp is the extended timestamp t = (l, ĉ).
	Timestamp = timestamp.Timestamp
	// Context is passed to data and watermark callbacks.
	Context = operator.Context
	// HandlerContext is passed to deadline exception handlers.
	HandlerContext = operator.HandlerContext
	// HandlerCallback is a deadline exception handler.
	HandlerCallback = operator.HandlerCallback
	// Message is an untyped stream message.
	Message = message.Message
	// Miss describes a missed deadline.
	Miss = deadline.Miss
)

// Deadline policies (§5.4).
const (
	// Abort terminates the proactive strategy and lets the handler amend
	// the dirty state.
	Abort = deadline.Abort
	// Continue runs the handler in parallel with the proactive strategy.
	Continue = deadline.Continue
)

// T constructs a timestamp with logical time l and optional accuracy
// coordinates.
func T(l uint64, c ...uint64) Timestamp { return timestamp.New(l, c...) }

// Graph is a dataflow graph under construction.
type Graph struct {
	g    *graph.Graph
	errs []error
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{g: graph.New()} }

// Stream is a typed handle to a dataflow stream.
type Stream[T any] struct {
	id stream.ID
}

// ID returns the raw stream identifier.
func (s Stream[T]) ID() stream.ID { return s.id }

// AddStream registers a stream carrying values of type T, to be written by
// exactly one operator.
func AddStream[T any](g *Graph, name string) Stream[T] {
	var zero T
	id := g.g.AddStream(name, reflect.TypeOf(&zero).Elem().String())
	return Stream[T]{id: id}
}

// IngestStream registers a stream written by the application (a source of
// the graph, e.g. a sensor).
func IngestStream[T any](g *Graph, name string) Stream[T] {
	s := AddStream[T](g, name)
	if err := g.g.MarkIngest(s.id); err != nil {
		g.errs = append(g.errs, err)
	}
	return s
}

// Affinity declares the named operators — typically a producer→consumer
// chain — as a co-location group: they share a lattice home shard within a
// worker, and unpinned members are scheduled onto the same worker in a
// cluster. Call after the operators are built.
func (g *Graph) Affinity(ops ...string) *Graph {
	if err := g.g.WithAffinity(ops...); err != nil {
		g.errs = append(g.errs, err)
	}
	return g
}

// DynamicDeadline declares that stream s carries relative-deadline updates
// from the deadline policy pDP and returns the deadline source that tracks
// them (§5.2). The source can be passed to OpBuilder.TimestampDeadline.
func DynamicDeadline(g *Graph, s Stream[time.Duration], def time.Duration) *deadline.Dynamic {
	dyn := deadline.NewDynamic(def)
	if err := g.g.AddDeadlineFeed(s.id, dyn); err != nil {
		g.errs = append(g.errs, err)
	}
	return dyn
}

// Static returns a static relative-deadline source.
func Static(d time.Duration) deadline.Source { return deadline.Static(d) }

// OpBuilder accumulates one operator's registration.
type OpBuilder struct {
	g        *Graph
	spec     *operator.Spec
	handlers []func(ctx *operator.Context, m message.Message)
	built    bool
}

// Operator starts building an operator.
func (g *Graph) Operator(name string) *OpBuilder {
	return &OpBuilder{
		g: g,
		spec: &operator.Spec{
			Name:          name,
			AutoWatermark: true,
		},
	}
}

// Input registers s as the next input of b's operator and binds fn to its
// data messages. fn may be nil for inputs consumed only via the watermark
// callback. It returns the input's positional index.
//
// A []byte value delivered to fn is valid until fn returns, the contract
// Codec.Unmarshal has: the runtime recycles a payload it received from the
// transport once every local callback it reached has returned. fn may send
// the value (or a subslice) onward with ctx.Send, which keeps it alive for
// the receivers; to keep it otherwise, fn copies it, or calls ctx.Retain
// and releases it when done.
func Input[T any](b *OpBuilder, s Stream[T], fn func(ctx *Context, t Timestamp, v T)) int {
	idx := len(b.spec.Inputs)
	b.spec.Inputs = append(b.spec.Inputs, s.id)
	if fn == nil {
		b.handlers = append(b.handlers, nil)
	} else {
		b.handlers = append(b.handlers, func(ctx *operator.Context, m message.Message) {
			fn(ctx, m.Timestamp, stream.Payload[T](m))
		})
	}
	return idx
}

// Output registers s as the next output of b's operator and returns its
// positional index for Context.Send.
func Output[T any](b *OpBuilder, s Stream[T]) int {
	idx := len(b.spec.Outputs)
	b.spec.Outputs = append(b.spec.Outputs, s.id)
	return idx
}

// WithState registers the operator's system-managed state (§5.4): the
// default time-versioned snapshot store seeded with initial and cloned by
// clone.
func WithState[S any](b *OpBuilder, initial S, clone func(S) S) *OpBuilder {
	b.spec.NewState = func() state.Store { return state.Typed(initial, clone) }
	return b
}

// WithStore registers a custom state store factory (e.g. state.NewLog).
func (b *OpBuilder) WithStore(factory func() state.Store) *OpBuilder {
	b.spec.NewState = factory
	return b
}

// StateOf extracts the typed working view from a callback context.
func StateOf[S any](ctx *Context) S {
	v, ok := ctx.State().(S)
	if !ok {
		panic(fmt.Sprintf("erdos: operator %q state is %T, not %T", ctx.Operator, ctx.State(), v))
	}
	return v
}

// OnWatermark registers the timestamp-ordered watermark callback.
func (b *OpBuilder) OnWatermark(fn operator.WatermarkCallback) *OpBuilder {
	b.spec.OnWatermark = fn
	return b
}

// ParallelMessages lets the operator's data callbacks run concurrently; the
// operator takes over synchronization of any shared structures (§6.2).
func (b *OpBuilder) ParallelMessages() *OpBuilder {
	b.spec.Mode = lattice.ModeParallelMessages
	return b
}

// NoAutoWatermark disables the automatic forwarding of completed
// watermarks; the operator must release watermarks itself.
func (b *OpBuilder) NoAutoWatermark() *OpBuilder {
	b.spec.AutoWatermark = false
	return b
}

// Place pins the operator to a named worker.
func (b *OpBuilder) Place(workerName string) *OpBuilder {
	b.spec.Placement = workerName
	return b
}

// TimestampDeadline registers a timestamp deadline (§5.1) with the default
// DSC (first received message for t) and DEC (first sent watermark for
// t' >= t), returning a DeadlineBuilder for customization.
func (b *OpBuilder) TimestampDeadline(name string, value deadline.Source, policy deadline.Policy, handler operator.HandlerCallback) *DeadlineBuilder {
	b.spec.Deadlines = append(b.spec.Deadlines, operator.TimestampDeadlineSpec{
		Name:    name,
		Output:  operator.AllOutputs,
		Value:   value,
		Policy:  policy,
		Handler: handler,
	})
	return &DeadlineBuilder{spec: &b.spec.Deadlines[len(b.spec.Deadlines)-1]}
}

// FrequencyDeadline registers a frequency deadline (§5.1) on input index
// `input`: if its next watermark does not arrive within the gap supplied by
// value, the runtime inserts one so downstream computation proceeds with
// partial input.
func (b *OpBuilder) FrequencyDeadline(name string, input int, value deadline.Source, onInsert func(Timestamp)) *OpBuilder {
	b.spec.FrequencyDeadlines = append(b.spec.FrequencyDeadlines, operator.FrequencyDeadlineSpec{
		Name:     name,
		Input:    input,
		Value:    value,
		OnInsert: onInsert,
	})
	return b
}

// DeadlineBuilder customizes one timestamp deadline.
type DeadlineBuilder struct {
	spec *operator.TimestampDeadlineSpec
}

// WithStartCondition replaces the DSC.
func (d *DeadlineBuilder) WithStartCondition(c deadline.Condition) *DeadlineBuilder {
	d.spec.Start = c
	return d
}

// WithEndCondition replaces the DEC (e.g. deadline.MessageCount(1) to bound
// the time to the first released message, as the Planner in Lst. 1 does).
func (d *DeadlineBuilder) WithEndCondition(c deadline.Condition) *DeadlineBuilder {
	d.spec.End = c
	return d
}

// OnOutput narrows the DEC to a single output stream index.
func (d *DeadlineBuilder) OnOutput(i int) *DeadlineBuilder {
	d.spec.Output = i
	return d
}

// Build registers the operator with the graph.
func (b *OpBuilder) Build() *Graph {
	if b.built {
		b.g.errs = append(b.g.errs, fmt.Errorf("erdos: operator %q built twice", b.spec.Name))
		return b.g
	}
	b.built = true
	handlers := b.handlers
	hasAny := false
	for _, h := range handlers {
		if h != nil {
			hasAny = true
		}
	}
	if hasAny {
		b.spec.OnData = func(ctx *operator.Context, input int, m message.Message) {
			if input < len(handlers) && handlers[input] != nil {
				handlers[input](ctx, m)
			}
		}
	}
	if err := b.g.g.AddOperator(b.spec); err != nil {
		b.g.errs = append(b.g.errs, err)
	}
	return b.g
}

// Err returns the accumulated construction errors, if any.
func (g *Graph) Err() error {
	if len(g.errs) == 0 {
		return nil
	}
	return fmt.Errorf("erdos: %d graph construction errors, first: %w", len(g.errs), g.errs[0])
}

// Raw exposes the underlying graph for the cluster and worker layers.
func (g *Graph) Raw() *graph.Graph { return g.g }

// RunOption customizes RunLocal.
type RunOption func(*worker.Options)

// WithThreads sizes the lattice goroutine pool.
func WithThreads(n int) RunOption {
	return func(o *worker.Options) { o.Threads = n }
}

// WithClock injects the deadline-enforcement clock (tests, simulation).
func WithClock(c deadline.Clock) RunOption {
	return func(o *worker.Options) { o.Clock = c }
}

// Runtime is a running local instantiation of a graph.
type Runtime struct {
	W *worker.Worker
}

// RunLocal validates the graph and runs every operator in one worker.
func (g *Graph) RunLocal(opts ...RunOption) (*Runtime, error) {
	if err := g.Err(); err != nil {
		return nil, err
	}
	wo := worker.Options{Local: true}
	for _, o := range opts {
		o(&wo)
	}
	w, err := worker.New(g.g, wo)
	if err != nil {
		return nil, err
	}
	return &Runtime{W: w}, nil
}

// Quiesce waits until every scheduled callback has completed.
func (r *Runtime) Quiesce() { r.W.Quiesce() }

// WaitHandlers waits for in-flight deadline exception handlers.
func (r *Runtime) WaitHandlers() { r.W.WaitHandlers() }

// Stop tears the runtime down.
func (r *Runtime) Stop() { r.W.Stop() }

// Stats returns the worker counters.
func (r *Runtime) Stats() worker.Stats { return r.W.Stats() }

// Writer returns a typed writer for an ingest stream.
func Writer[T any](r *Runtime, s Stream[T]) (stream.WriteStream[T], error) {
	b, ok := r.W.Broadcaster(s.id)
	if !ok {
		var zero stream.WriteStream[T]
		return zero, fmt.Errorf("erdos: unknown stream %d", s.id)
	}
	return stream.Wrap[T](b), nil
}

// Collector gathers the traffic of one stream for extraction.
type Collector[T any] struct {
	mu   sync.Mutex
	data []Timestamped[T]
	wms  []Timestamp
	subs []func(Timestamped[T])
}

// Timestamped pairs a payload with its timestamp.
type Timestamped[T any] struct {
	Time  Timestamp
	Value T
}

// Collect subscribes a typed collector to stream s.
func Collect[T any](r *Runtime, s Stream[T]) (*Collector[T], error) {
	c := &Collector[T]{}
	err := r.W.Subscribe(s.id, func(m message.Message) {
		if m.IsWatermark() {
			c.mu.Lock()
			c.wms = append(c.wms, m.Timestamp)
			c.mu.Unlock()
			return
		}
		tv := Timestamped[T]{Time: m.Timestamp, Value: stream.Payload[T](m)}
		c.mu.Lock()
		c.data = append(c.data, tv)
		subs := c.subs
		c.mu.Unlock()
		for _, fn := range subs {
			fn(tv)
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Data returns the collected data messages.
func (c *Collector[T]) Data() []Timestamped[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Timestamped[T](nil), c.data...)
}

// Watermarks returns the collected watermark timestamps.
func (c *Collector[T]) Watermarks() []Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Timestamp(nil), c.wms...)
}

// OnData registers a live subscriber invoked for each data message.
func (c *Collector[T]) OnData(fn func(Timestamped[T])) {
	c.mu.Lock()
	c.subs = append(c.subs, fn)
	c.mu.Unlock()
}

// Len returns the number of collected data messages.
func (c *Collector[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}
