// Package resilience keeps the serving path alive under hostile
// conditions: overload, runaway memory, panicking operators. It
// provides the three guard rails the root package threads through
// System.Run —
//
//   - Admission: a weighted semaphore gating concurrent queries, with
//     a bounded waiter queue and fail-fast typed overload errors;
//   - Budget / Gauge: per-query memory accounting charged by the
//     engine's arena allocations and the optimizer's memo, under both
//     a per-query and a shared process-wide limit;
//   - PanicError / CatchPanic: the contract for converting a worker
//     goroutine's panic into a typed error with the stack attached,
//     so one poisoned query cannot take the process down;
//   - UnavailableError: the typed failure for queries that need data
//     whose only copies live on dead nodes (see the health subpackage
//     for the per-node breaker that declares them dead).
//
// All guards fail with typed errors (ErrOverloaded, ErrBudgetExceeded,
// ErrUnavailable, *PanicError) so callers can distinguish "shed me,
// retry later" from "this query is broken" without string matching.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ErrOverloaded is the sentinel matched by errors.Is for admission
// rejections. The concrete error is *OverloadError.
var ErrOverloaded = errors.New("resilience: overloaded")

// OverloadError reports that admission control rejected a query: every
// execution slot was busy and the waiter queue was full (or the query's
// deadline had already expired while it waited). It matches
// ErrOverloaded via errors.Is.
type OverloadError struct {
	// InFlight and Queued snapshot the controller when the query was
	// turned away.
	InFlight int64
	Queued   int64
	// RetryAfter is a hint for how long the caller should back off
	// before retrying. It is an estimate, not a reservation.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("resilience: overloaded (%d running, %d queued); retry after %v",
		e.InFlight, e.Queued, e.RetryAfter)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrBudgetExceeded is the sentinel matched by errors.Is for memory
// budget trips. The concrete error is *BudgetError.
var ErrBudgetExceeded = errors.New("resilience: memory budget exceeded")

// BudgetError reports that a memory reservation pushed a query past
// its budget. Site names the operator or phase whose allocation
// tripped it ("memo", "scan", "repartition-join", ...). It matches
// ErrBudgetExceeded via errors.Is.
type BudgetError struct {
	// Site is the operator or phase that requested the reservation.
	Site string
	// Requested is the reservation that tripped the limit, in bytes.
	Requested int64
	// Used is what the query (or the process, for Shared trips) had
	// already reserved when the request arrived.
	Used int64
	// Limit is the budget that was exceeded.
	Limit int64
	// Shared reports that the process-wide budget tripped rather than
	// this query's own limit: the query may be innocent, merely late.
	Shared bool
}

func (e *BudgetError) Error() string {
	scope := "query"
	if e.Shared {
		scope = "process"
	}
	return fmt.Sprintf("resilience: %s memory budget exceeded at %s (%d + %d > %d bytes)",
		scope, e.Site, e.Used, e.Requested, e.Limit)
}

// Is matches the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// ErrUnavailable is the sentinel matched by errors.Is for queries that
// touched a dead, unreplicated fragment. The concrete error is
// *UnavailableError.
var ErrUnavailable = errors.New("resilience: fragment unavailable")

// UnavailableError reports that a query needed triples whose only
// copies live on nodes currently considered dead: the engine failed
// over to replicas and found at least one matched triple with no live
// copy. It is a fail-fast error — the query never hangs or
// returns a silent partial result. It matches ErrUnavailable via
// errors.Is.
type UnavailableError struct {
	// Nodes are the dead nodes the query touched, ascending.
	Nodes []int
	// Op is the operation that found the hole ("scan" or "shuffle").
	Op string
	// Missing counts matched triples with no live replica (0 when the
	// breaker rejected the node before any data was consulted).
	Missing int
	// RetryAfter hints when a retry could succeed: the earliest time a
	// dead node's breaker re-probes, or the recovery re-replication
	// horizon. Zero when unknown.
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	msg := fmt.Sprintf("resilience: fragment unavailable: node(s) %v down during %s", e.Nodes, e.Op)
	if e.Missing > 0 {
		msg += fmt.Sprintf(", %d matched triple(s) without a live replica", e.Missing)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf("; retry after %v", e.RetryAfter)
	}
	return msg
}

// Is matches the ErrUnavailable sentinel.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// PanicError is a panic recovered from a worker goroutine, converted
// into an error so the query fails while the process survives. Stack
// is the panicking goroutine's stack, captured at recovery.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted stack trace of the panicking goroutine.
	Stack []byte
}

// NewPanicError wraps a recovered panic value. Call it only from a
// deferred recover site: the captured stack is the current goroutine's.
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: recovered panic: %v", e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err)) to
// errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// CatchPanic converts a panic on the current goroutine into a
// *PanicError stored at errp, leaving any existing error untouched.
// Use it as `defer resilience.CatchPanic(&err)` around code whose
// panics must fail the query, not the process. onRecover, when
// non-nil, runs after a panic was caught (metrics hooks).
func CatchPanic(errp *error, onRecover func()) {
	if r := recover(); r != nil {
		if *errp == nil {
			*errp = NewPanicError(r)
		}
		if onRecover != nil {
			onRecover()
		}
	}
}
