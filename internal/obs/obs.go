// Package obs is the zero-dependency observability layer behind the
// serving path: a lock-striped metrics registry with Prometheus text
// exposition, a structured query-lifecycle tracer, a ring-buffer
// slow-query log, and phase-annotated cancellation errors.
//
// The package is deliberately self-contained (standard library only)
// so every layer of the system — optimizer, execution engine, plan
// cache, the root serving API and sparqld — can depend on it without
// import cycles or third-party baggage.
//
// Design rules:
//
//   - Instrument handles (*Counter, *Gauge, *Histogram) are cheap
//     atomics obtained once from the Registry and then written to
//     lock-free. Their methods are nil-receiver safe, so partially
//     wired instrument bundles degrade to no-ops.
//   - The disabled path of every instrumented component is a single
//     branch-predictable nil check on the component's instrument
//     bundle (or on a nil *Trace / *SlowLog); no allocation, no atomic
//     traffic, no time syscalls.
//   - Traces are built by the goroutine serving the query; spans are
//     not safe for concurrent mutation and the engine attaches its
//     per-operator profile after execution completes, in plan order.
package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// registryShards is the number of lock stripes of a Registry. Metric
// families are few and handles are cached by callers, so the stripes
// only have to absorb concurrent get-or-create bursts at startup and
// the occasional dynamic series registration.
const registryShards = 16

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// instrumentKind discriminates what a family holds.
type instrumentKind uint8

const (
	counterKind instrumentKind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k instrumentKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is every series sharing one metric name.
type family struct {
	name, help string
	kind       instrumentKind
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // keyed by rendered label string
}

// series is one (name, labels) instrument.
type series struct {
	labels  string // rendered `{k="v",...}`, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// Registry is a lock-striped collection of metric families. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use; Counter/Gauge/Histogram are get-or-create and return
// the same handle for the same (name, labels) every time.
type Registry struct {
	shards [registryShards]struct {
		mu   sync.Mutex
		fams map[string]*family
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].fams = make(map[string]*family)
	}
	return r
}

// familyFor returns the family for name, creating it with the given
// kind on first use. Registering one name with two different kinds (or
// two bucket layouts) is a programming error and panics.
func (r *Registry) familyFor(name, help string, kind instrumentKind, buckets []float64) *family {
	h := fnv.New32a()
	h.Write([]byte(name))
	sh := &r.shards[h.Sum32()%registryShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		sh.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	return f
}

// seriesFor returns the series for the rendered label set, creating it
// via mk on first use.
func (f *family) seriesFor(labels []Label, mk func() *series) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = key
	f.series[key] = s
	return s
}

// Counter returns the counter for (name, labels), registering it on
// first use. By convention counter names end in "_total".
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, counterKind, nil)
	return f.seriesFor(labels, func() *series { return &series{counter: &Counter{}} }).counter
}

// Gauge returns the gauge for (name, labels), registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, gaugeKind, nil)
	return f.seriesFor(labels, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition time — the "live gauge" shape used for views over
// existing counters (plan cache hit counts, resident entries).
// Re-registering the same (name, labels) keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, gaugeFuncKind, nil)
	f.seriesFor(labels, func() *series { return &series{gfn: fn} })
}

// Histogram returns the histogram for (name, labels), registering it
// with the given bucket upper bounds (ascending; +Inf is implicit) on
// first use. A nil buckets slice selects DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	f := r.familyFor(name, help, histogramKind, buckets)
	return f.seriesFor(labels, func() *series { return &series{hist: newHistogram(f.buckets)} }).hist
}

// renderLabels renders a label set as `{k="v",...}` with the keys
// sorted, escaping label values per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline, the
// three characters the Prometheus text format requires escaping in
// label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
