package opt

import (
	"sync"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
)

// pool bounds the enumerator's concurrency at Options.Parallelism
// goroutines: the caller plus up to parallelism−1 spawned workers.
// submit is best-effort — when every worker slot is busy the task runs
// inline on the submitting goroutine. That "always make progress
// yourself" rule is what makes the fork-join recursion deadlock-free:
// a goroutine only ever blocks on a future whose owner is actively
// executing, and ownership chains descend strictly by subquery size,
// so some owner is always runnable.
type pool struct {
	sem     chan struct{}
	batches sync.Pool
}

func newPool(parallelism int) *pool {
	p := &pool{sem: make(chan struct{}, parallelism-1)}
	p.batches.New = func() any { return new(cmdBatch) }
	return p
}

// submit runs fn on a fresh goroutine if a worker slot is free, inline
// otherwise. It returns after fn started (inline) or was handed off.
func (p *pool) submit(fn func()) {
	select {
	case p.sem <- struct{}{}:
		go func() {
			defer func() { <-p.sem }()
			fn()
		}()
	default:
		fn()
	}
}

// cmdBatch carries a window of connected multi-divisions from the
// enumeration goroutine to a costing worker. Parts of all CMDs live in
// one arena slice indexed by offsets, so a batch costs zero
// allocations per CMD once its backing arrays are warm; batches are
// recycled through the pool's sync.Pool (the "pool CMD.Parts slices"
// half of the allocation diet).
type cmdBatch struct {
	vjs   []int          // join variable of CMD i
	offs  []int32        // parts of CMD i are parts[offs[i]:offs[i+1]]
	parts []bitset.TPSet // arena backing every CMD's parts
	// cur and win are costBatch's scratch children: the candidate
	// being costed and the batch's winner so far.
	cur, win []*plan.Node
}

func (b *cmdBatch) reset() {
	b.vjs = b.vjs[:0]
	b.offs = append(b.offs[:0], 0)
	b.parts = b.parts[:0]
}

func (b *cmdBatch) add(cmd CMD) {
	b.vjs = append(b.vjs, cmd.Var)
	b.parts = append(b.parts, cmd.Parts...)
	b.offs = append(b.offs, int32(len(b.parts)))
}

func (b *cmdBatch) len() int { return len(b.vjs) }

// partsOf returns the (arena-backed, read-only) parts of CMD i.
func (b *cmdBatch) partsOf(i int) []bitset.TPSet {
	return b.parts[b.offs[i]:b.offs[i+1]]
}

func (p *pool) getBatch() *cmdBatch {
	b := p.batches.Get().(*cmdBatch)
	b.reset()
	return b
}

func (p *pool) putBatch(b *cmdBatch) { p.batches.Put(b) }
