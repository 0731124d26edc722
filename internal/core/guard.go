package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered invariant panic from inside the pipeline
// (gain buckets, builders, refiners), converted at a stage boundary
// into an error that records where it fired. Callers receive it
// alongside the last good solution, so an internal bug degrades a run
// instead of crashing the process.
type PanicError struct {
	// Stage names the pipeline stage that panicked: "coarsen",
	// "coarsest-partition", "project", "rebalance", "refine", a
	// flat-engine name, or "start" for a panic that escaped a whole
	// supervised multi-start attempt.
	Stage string
	// Level is the hierarchy level at which the panic fired (0 = the
	// original netlist); -1 when the stage has no level.
	Level int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Level >= 0 {
		return fmt.Sprintf("core: internal panic in %s at level %d: %v", e.Stage, e.Level, e.Value)
	}
	return fmt.Sprintf("core: internal panic in %s: %v", e.Stage, e.Value)
}

// Guard runs fn, converting a panic into a *PanicError tagged with
// the stage and level. A nil return means fn completed (possibly with
// its own error).
func Guard(stage string, level int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: stage, Level: level, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// AsPanicError unwraps err to a *PanicError if one is in its chain.
func AsPanicError(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// mergeStop combines a user Stop hook with context cancellation into
// a single pass-boundary poll. The user hook is consulted first so
// its behaviour (including a deliberate panic in tests) is
// independent of the context state.
func mergeStop(prev func() bool, ctx context.Context) func() bool {
	//mllint:ignore ctx-thread comparison against the root context to skip a useless poll hook; nothing is created
	if ctx == nil || ctx == context.Background() {
		return prev
	}
	return func() bool {
		if prev != nil && prev() {
			return true
		}
		return ctx.Err() != nil
	}
}

// orBackground normalizes a nil ctx from a caller to the root
// context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	return ctx
}
