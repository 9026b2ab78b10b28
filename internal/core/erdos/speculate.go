package erdos

import (
	"time"
)

// Accuracy coordinates used by the speculative-execution helpers: outputs
// are annotated with ĉ so the lattice prioritizes higher-accuracy inputs
// downstream (§5.3, "Intermediate Results").
const (
	// CoarseResult tags the fast, low-accuracy release.
	CoarseResult uint64 = 1
	// RefinedResult tags the accurate release for the same logical time.
	RefinedResult uint64 = 2
)

// Speculate implements §5.3's "executing multiple versions" proactive
// strategy for one timestamp: it immediately runs fast, releases its result
// on output `out` tagged with a low accuracy coordinate (unblocking
// downstream computation), and concurrently runs accurate. If the accurate
// implementation completes before the timestamp's deadline expires (and the
// invocation is not aborted by a DEH), its result is released with a higher
// accuracy coordinate and returned; otherwise the fast result stands.
//
// The returned bool reports whether the accurate version won. The runtime
// automatically prioritizes the higher-ĉ messages downstream, so consumers
// transparently compute on the best available input.
//
// accurate may read the callback's delivered payload: Speculate retains it
// until accurate returns, because an abandoned accurate run outlives the
// callback.
func Speculate[T any](ctx *Context, out int, fast, accurate func() T) (T, bool) {
	fastRes := fast()
	_ = ctx.Send(out, ctx.Timestamp.WithCoordinates(CoarseResult), fastRes)

	accCh := make(chan T, 1)
	release := ctx.Retain()
	go func() {
		defer release()
		accCh <- accurate()
	}()

	var expire <-chan time.Time
	if _, abs, ok := ctx.Deadline(); ok {
		d := time.Until(abs)
		if d <= 0 {
			return fastRes, false
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	select {
	case accRes := <-accCh:
		if ctx.Aborted() {
			return fastRes, false
		}
		_ = ctx.Send(out, ctx.Timestamp.WithCoordinates(RefinedResult), accRes)
		return accRes, true
	case <-expire:
		return fastRes, false
	case <-ctx.Done():
		return fastRes, false
	}
}

// Anytime implements §5.3's anytime-algorithm strategy: step is called
// repeatedly until it reports no further refinement, the deadline expires,
// or the invocation is aborted; each refined result is released with an
// increasing accuracy coordinate so downstream computation can begin on the
// coarse result and transparently upgrade.
//
// step returns the current best result and whether another refinement round
// remains. Anytime returns the last released result and the number of
// refinement rounds released.
func Anytime[T any](ctx *Context, out int, step func(round int) (T, bool)) (T, int) {
	var last T
	rounds := 0
	var deadline time.Time
	hasDL := false
	if _, abs, ok := ctx.Deadline(); ok {
		deadline, hasDL = abs, true
	}
	for {
		res, more := step(rounds)
		last = res
		rounds++
		_ = ctx.Send(out, ctx.Timestamp.WithCoordinates(uint64(rounds)), res)
		if !more || ctx.Aborted() {
			return last, rounds
		}
		if hasDL && !time.Now().Before(deadline) {
			return last, rounds
		}
	}
}
