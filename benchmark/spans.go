package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call of the traced replay. Spans of one replayed
// request share RequestID (and Rep, the repetition); Parent is the ID of
// the span whose call encloses this one, -1 for a root.
//
// The replay times each level of one request in a separate execution
// (loopback request, ServeHTTP, RunStream, then the layer functions),
// because the benchmark records spans only from its own files. A child
// measured that way is placed inside its parent's interval, after its
// earlier siblings, so that self time stays plain interval arithmetic.
// Spans measured inside a live parent call (the plan cache's collect
// and optimize callbacks) keep their real timestamps.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	RequestID int    `json:"request_id"`
	Rep       int    `json:"rep"`
	Parent    int    `json:"parent"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the replay ends.
type recorder struct {
	spans  []span
	cursor map[int]int64 // per parent: where the next placed child starts
}

func newRecorder() *recorder { return &recorder{cursor: map[int]int64{}} }

// add records a span with real timestamps and returns its ID.
func (r *recorder) add(name string, req, rep, parent int, start, end int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, RequestID: req, Rep: rep, Parent: parent, StartNS: start, EndNS: end})
	return id
}

// place records a separately measured child of parent: it starts where
// the parent's previous placed child ended (the parent's own start for
// the first).
func (r *recorder) place(name string, parent int, dur int64) int {
	p := r.spans[parent]
	start, ok := r.cursor[parent]
	if !ok {
		start = p.StartNS
	}
	r.cursor[parent] = start + dur
	return r.add(name, p.RequestID, p.Rep, parent, start, start+dur)
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval its child spans cover. Children are clipped to the
// parent and overlapping siblings are counted once, so a self time is
// never negative; children that outlast their parent show up as a sum
// of self times larger than the root (replay.layer_sum_ratio). Spans for
// which skip returns true are ignored entirely — as children too.
func selfTimes(spans []span, skip func(span) bool) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent >= 0 && (skip == nil || !skip(s)) {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if skip != nil && skip(s) {
			continue
		}
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var cover int64
		at := s.StartNS
		for _, k := range ivs {
			a, b := k.a, k.b
			if a < at {
				a = at
			}
			if b > s.EndNS {
				b = s.EndNS
			}
			if b > a {
				cover += b - a
				at = b
			}
		}
		self[s.ID] = s.dur() - cover
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
