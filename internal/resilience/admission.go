package resilience

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sparqlopt/internal/obs"
)

// Admission is a weighted semaphore gating the serving path: at most
// maxConcurrent units of work run at once, at most maxQueued waiters
// block for a slot, and everything past that is rejected immediately
// with a typed *OverloadError carrying a retry-after hint. Waiters are
// woken FIFO; a waiter whose context expires (deadline or cancel)
// never occupies a slot — admission is deadline-aware on both edges:
// an already-expired query is rejected before it queues, and a query
// whose deadline fires while queued is released without admission.
type Admission struct {
	max       int64
	maxQueued int64

	mu      sync.Mutex
	cur     int64      // weight currently admitted
	waiters *list.List // of *waiter, FIFO

	queued   atomic.Int64
	inFlight atomic.Int64

	// lastHeld is an EWMA-free estimate of recent slot hold time in
	// nanoseconds, updated on release; it seeds the retry-after hint.
	lastHeld atomic.Int64
	// rejects counts rejections; it decorrelates the jitter of
	// concurrent rejected callers so their retries do not land in one
	// synchronized wave.
	rejects atomic.Uint64
}

type waiter struct {
	weight int64
	ready  chan struct{} // closed when the slot was granted
}

// NewAdmission returns a controller admitting maxConcurrent weight
// units with up to maxQueued queued waiters. maxConcurrent < 1 is
// clamped to 1; maxQueued < 0 is clamped to 0 (no queueing: overflow
// is rejected immediately).
func NewAdmission(maxConcurrent, maxQueued int) *Admission {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	return &Admission{
		max:       int64(maxConcurrent),
		maxQueued: int64(maxQueued),
		waiters:   list.New(),
	}
}

// InFlight returns the weight currently admitted.
func (a *Admission) InFlight() int64 { return a.inFlight.Load() }

// Queued returns the number of waiters currently queued.
func (a *Admission) Queued() int64 { return a.queued.Load() }

// Acquire admits weight units of work, blocking in the bounded FIFO
// queue when the semaphore is full. It returns a release function that
// must be called exactly once when the work finishes. Failures are
// typed: *OverloadError (matches ErrOverloaded) when the queue is
// full, and the context's cause wrapped in an obs.PhaseError with
// phase "admission" when ctx expires before (or while) waiting —
// a query whose deadline already passed is never admitted.
func (a *Admission) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if weight < 1 {
		weight = 1
	}
	if err := obs.Canceled(ctx, "admission"); err != nil {
		return nil, err
	}
	a.mu.Lock()
	if a.cur+weight <= a.max && a.waiters.Len() == 0 {
		a.cur += weight
		a.mu.Unlock()
		return a.admitted(weight), nil
	}
	if int64(a.waiters.Len()) >= a.maxQueued {
		inFlight, queued := a.inFlight.Load(), int64(a.waiters.Len())
		a.mu.Unlock()
		return nil, &OverloadError{
			InFlight:   inFlight,
			Queued:     queued,
			RetryAfter: a.retryAfter(queued),
		}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	el := a.waiters.PushBack(w)
	a.queued.Add(1)
	a.mu.Unlock()

	select {
	case <-w.ready:
		a.queued.Add(-1)
		// The slot is ours, but never admit an expired query: give the
		// weight straight back (waking the next waiter) and fail.
		if err := obs.Canceled(ctx, "admission"); err != nil {
			a.releaseWeight(weight)
			return nil, err
		}
		return a.admitted(weight), nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: hand the weight on.
			a.mu.Unlock()
			a.queued.Add(-1)
			a.releaseWeight(weight)
		default:
			a.waiters.Remove(el)
			a.mu.Unlock()
			a.queued.Add(-1)
		}
		return nil, obs.Canceled(ctx, "admission")
	}
}

// admitted finalizes a grant and returns its once-only release func.
func (a *Admission) admitted(weight int64) func() {
	a.inFlight.Add(weight)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.lastHeld.Store(int64(time.Since(start)))
			a.inFlight.Add(-weight)
			a.releaseWeight(weight)
		})
	}
}

// releaseWeight returns weight to the semaphore and grants queued
// waiters FIFO while capacity lasts.
func (a *Admission) releaseWeight(weight int64) {
	a.mu.Lock()
	a.cur -= weight
	for el := a.waiters.Front(); el != nil; {
		w := el.Value.(*waiter)
		if a.cur+w.weight > a.max {
			break
		}
		next := el.Next()
		a.waiters.Remove(el)
		a.cur += w.weight
		close(w.ready)
		el = next
	}
	a.mu.Unlock()
}

// retryAfter estimates how long a rejected caller should back off.
// The hint scales with the current queue depth: the line ahead drains
// in FIFO waves of max concurrent slots, each wave taking roughly the
// recent per-query hold time (floored at a small constant so a zero
// history still spreads retries out). On top of the depth-scaled
// estimate it adds up to half a hold time of deterministic jitter,
// keyed by the rejection count, so a burst of simultaneous rejections
// does not retry in one synchronized wave that gets rejected again.
func (a *Admission) retryAfter(queued int64) time.Duration {
	held := time.Duration(a.lastHeld.Load())
	if held < 10*time.Millisecond {
		held = 10 * time.Millisecond
	}
	waves := (queued + a.max) / a.max // queue drained in FIFO waves of max
	d := held * time.Duration(waves)
	jitter := time.Duration(float64(held) / 2 * unitFloat(splitmix64(a.rejects.Add(1))))
	return d + jitter
}

// unitFloat maps a 64-bit hash onto [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// splitmix64 is the SplitMix64 finalizer — one multiply-xorshift
// round with excellent avalanche, the same mixer the fault-injection
// sites use. Kept private and dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
