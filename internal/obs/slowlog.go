package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// SlowQueryEntry is one logged query: anything that ran past the
// slow-query threshold or failed.
type SlowQueryEntry struct {
	// Time is when the query finished.
	Time time.Time
	// Query is the query source text.
	Query string
	// Algorithm is the requested optimization algorithm.
	Algorithm string
	// Duration is the end-to-end serving time.
	Duration time.Duration
	// Rows is the result size (0 on error).
	Rows int
	// FlatRows is the root operator's (pre-dedup, pre-projection)
	// output size. A large FlatRows/Rows ratio flags a query whose
	// root materializes many rows that deduplication then drops.
	FlatRows int64
	// ShuffledRows is the run's total cross-node row movement;
	// ShuffledBytes its wire volume. Surfaced here (not only as trace
	// span attrs) so operators can see shuffle cost without a trace
	// sink attached.
	ShuffledRows  int64
	ShuffledBytes int64
	// CacheHit reports that the plan came from the plan cache.
	CacheHit bool
	// Err is the failure that ended the run, "" for a slow success.
	// Cancellations carry their query phase and cause (deadline vs.
	// manual cancel) via the engine's PhaseError annotations.
	Err string
	// Rejected distinguishes admission-control rejections (the system
	// refused to run the query) from queries that ran and failed.
	Rejected bool
	// Degraded lists the fallback-ladder steps a successful query took
	// (algorithm downgrades, node failover); empty for
	// the healthy path.
	Degraded []string
	// Failovers counts node operations this query served via failover
	// (replica scans of dead nodes, re-homed shuffle partitions).
	Failovers int64
	// Phases are the top-level trace phases with their durations.
	Phases []PhaseTiming
}

// String renders the entry as one log line.
func (e SlowQueryEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v %s", e.Time.Format(time.RFC3339), e.Duration.Round(time.Microsecond), e.Algorithm)
	switch {
	case e.Rejected:
		fmt.Fprintf(&b, " REJECTED %q", e.Err)
	case e.Err != "":
		fmt.Fprintf(&b, " ERROR %q", e.Err)
	default:
		fmt.Fprintf(&b, " rows=%d flat_rows=%d", e.Rows, e.FlatRows)
	}
	if e.Err == "" {
		fmt.Fprintf(&b, " shuffled=%d rows/%d B", e.ShuffledRows, e.ShuffledBytes)
	}
	if e.CacheHit {
		b.WriteString(" cache=hit")
	}
	if len(e.Degraded) > 0 {
		fmt.Fprintf(&b, " DEGRADED[%s]", strings.Join(e.Degraded, "; "))
	}
	if e.Failovers > 0 {
		fmt.Fprintf(&b, " failovers=%d", e.Failovers)
	}
	for _, p := range e.Phases {
		fmt.Fprintf(&b, " %s=%v", p.Name, p.Dur.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " query=%q", condense(e.Query))
	return b.String()
}

// condense collapses the query text onto one line, truncated.
func condense(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	const max = 200
	if len(q) > max {
		q = q[:max] + "..."
	}
	return q
}

// SlowLog is a fixed-capacity ring buffer of slow (or failed)
// queries. It is safe for concurrent use; methods on a nil *SlowLog
// are no-ops, the disabled value.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	buf       []SlowQueryEntry
	next      int    // ring position of the next write
	n         int    // valid entries (≤ len(buf))
	total     uint64 // entries ever recorded, including overwritten
}

// NewSlowLog returns a log keeping the last capacity entries at or
// over threshold. capacity <= 0 returns nil (disabled).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, buf: make([]SlowQueryEntry, capacity)}
}

// Threshold returns the latency threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record logs e if it qualifies — at or over the threshold, or failed
// — and reports whether it was kept.
func (l *SlowLog) Record(e SlowQueryEntry) bool {
	if l == nil || (e.Duration < l.threshold && e.Err == "") {
		return false
	}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
	return true
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowQueryEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQueryEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// Total returns how many entries were ever recorded, including ones
// the ring has since overwritten.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
