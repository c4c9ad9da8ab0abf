package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"sparqlopt"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

const prefixes = "PREFIX rdf: <" + lubm.RDF + ">\nPREFIX ub: <" + lubm.UB + ">\n"

// constMark stands for the sampled constant in a kind's query text.
const constMark = "$C"

// instancesPerKind is how many constants are drawn for a kind that has
// one; kinds without a constant have a single instance.
const instancesPerKind = 8

// kindDef is one request shape. Where its text holds constMark, the
// constant is sampled from the dataset (see sampleConstants), so no
// operation of a workload returns nothing.
type kindDef struct {
	name string
	text string
}

// kindNames fixes the order of the per-kind report rows.
var kindNames = []string{"L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "S2", "J1", "SP", "F2", "P1", "P2"}

var kinds = func() map[string]kindDef {
	m := map[string]kindDef{
		"S2": {name: "S2", text: prefixes + "SELECT ?x ?t WHERE { ?x rdf:type ?t . }"},
		"J1": {name: "J1", text: prefixes + "SELECT ?x ?c ?f WHERE { ?x ub:takesCourse ?c . ?f ub:teacherOf ?c . }"},
		"SP": {name: "SP", text: prefixes + "SELECT ?p ?a ?n WHERE { ?p ub:publicationAuthor ?a . ?p ub:name ?n . }"},
		// F2 is the factorized star of internal/bench/factorized.go.
		"F2": {name: "F2", text: prefixes + "SELECT ?x WHERE { ?x ub:advisor ?f . ?p ub:publicationAuthor ?f . ?f ub:teacherOf ?c . }"},
		"P1": {name: "P1", text: prefixes + "SELECT ?c WHERE { <$C> ub:takesCourse ?c . }"},
		// The issue's P2, { <s> advisor ?f . <s> memberOf ?d }, joins only on
		// its constant; the optimizer rejects it as disconnected, and a
		// workload may hold no operation that fails. This chain keeps the
		// point: two patterns anchored at one constant subject.
		"P2": {name: "P2", text: prefixes + "SELECT ?f ?d WHERE { <$C> ub:advisor ?f . ?f ub:worksFor ?d . }"},
	}
	for _, name := range lubm.QueryNames {
		m[name] = lubmKind(name)
	}
	return m
}()

// lubmKind turns a paper query into a kind: the one subject or object
// constant outside an rdf:type pattern becomes the sampled constant.
func lubmKind(name string) kindDef {
	k := kindDef{name: name, text: lubm.QueryText(name)}
	for _, tp := range lubm.Query(name).Patterns {
		if tp.P.Value == lubm.RDF+"type" {
			continue
		}
		for _, c := range []sparql.Term{tp.S, tp.O} {
			if !c.IsVar() {
				k.text = strings.ReplaceAll(k.text, "<"+c.Value+">", "<"+constMark+">")
				return k
			}
		}
	}
	return k
}

// request is one distinct thing a client asks: a kind, one of its
// constants and a result format.
type request struct {
	ID     string   `json:"id"` // kind/instance/format
	Kind   string   `json:"kind"`
	Inst   int      `json:"inst"`
	Format string   `json:"format"`
	Query  string   `json:"query"`
	Vars   []string `json:"vars"`
	Want   answer   `json:"want"`
	// BodyLen is the length of the body that passed full verification
	// during warm-up; inside the timed window only status and this
	// length are checked. 0 until learned (and for library reads).
	BodyLen int64 `json:"body_len,omitempty"`
}

// mixEntry gives a kind its share of a workload's schedule.
type mixEntry struct {
	kind   string
	weight int
}

// workloadDef is one named workload. mix lists kinds in ascending order
// of their baseline latency on that workload, which is the order the
// percentile-ownership guard assumes (see ownersOf).
type workloadDef struct {
	name      string
	why       string
	library   bool // SUT is the re-exec'd child, not sparqld
	partition string
	planCache int
	formats   []string
	mix       []mixEntry
}

const (
	fmtJSON = "json"
	fmtTSV  = "tsv"
)

var workloads = []workloadDef{
	{
		name:      "warm-mix",
		why:       "L1-L10 over sparqld with the plan cache hot: engine scan/move/join does the work, optimizer and stats do none",
		partition: "hash-so", planCache: 256, formats: []string{fmtJSON},
		mix: []mixEntry{{"L1", 4}, {"L2", 4}, {"L4", 4}, {"L3", 4}, {"L5", 4}, {"L7", 10}, {"L6", 2}, {"L9", 5}, {"L10", 5}, {"L8", 8}},
	},
	{
		name:      "cold-plan",
		why:       "L3-L10 over sparqld with no plan cache on 2f: every request pays stats collection and plan enumeration",
		partition: "2f", planCache: 0, formats: []string{fmtJSON},
		mix: []mixEntry{{"L3", 3}, {"L4", 3}, {"L6", 3}, {"L7", 5}, {"L5", 2}, {"L8", 2}, {"L9", 2}, {"L10", 3}},
	},
	{
		name:      "result-heavy",
		why:       "10^4-10^5-row bodies in JSON and TSV: root flatten/dedup, httpd encoding and the socket write dominate",
		partition: "hash-so", planCache: 256, formats: []string{fmtJSON, fmtTSV},
		mix: []mixEntry{{"L8", 8}, {"F2", 8}, {"SP", 3}, {"S2", 3}, {"J1", 3}},
	},
	{
		name:    "ingest-mix",
		why:     "library API, sub-millisecond point reads against a paced writer: fixed serving overhead and the write path, no httpd",
		library: true, partition: "hash-so", planCache: 256, formats: []string{fmtJSON},
		mix: []mixEntry{{"P1", 3}, {"L1", 2}, {"P2", 5}, {"L2", 2}},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// kindSeed derives a kind's sampling seed from the run seed, so a kind
// draws the same constants in every workload that uses it.
func kindSeed(seed int64, kind string) int64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	return seed*1000003 + int64(h.Sum64()>>1)
}

// constVar is the variable that stands in for a kind's constant when
// its candidates are drawn.
const constVar = "benchconst"

// sampleConstants draws up to n constants for k from the real bindings
// of its position: the kind's query with the constant turned into a
// variable is evaluated once, and that variable's distinct values are
// exactly the constants whose query has at least one row. They are put
// in term order, shuffled by the seed, and the first n kept.
func sampleConstants(ds *sparqlopt.Dataset, k kindDef, n int, seed int64) ([]string, error) {
	if !strings.Contains(k.text, constMark) {
		return []string{""}, nil
	}
	res, err := reference(ds, strings.ReplaceAll(k.text, "<"+constMark+">", "?"+constVar), constVar)
	if err != nil {
		return nil, fmt.Errorf("kind %s: %w", k.name, err)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("kind %s: no constant gives a non-empty result", k.name)
	}
	cands := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cands[i] = ds.Dict.Term(row[0])
	}
	sort.Strings(cands)
	rng := rand.New(rand.NewSource(kindSeed(seed, k.name)))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands, nil
}

// buildRequests makes a workload's distinct requests with the answers
// answerOf computes for them.
func buildRequests(w workloadDef, ds *sparqlopt.Dataset, seed int64, answerOf func(src string) ([]string, answer, error)) ([]request, error) {
	var reqs []request
	for _, m := range w.mix {
		k := kinds[m.kind]
		consts, err := sampleConstants(ds, k, instancesPerKind, seed)
		if err != nil {
			return nil, err
		}
		for i, c := range consts {
			src := strings.ReplaceAll(k.text, constMark, c)
			if _, err := sparql.Parse(src); err != nil {
				return nil, fmt.Errorf("kind %s: %w", k.name, err)
			}
			vars, want, err := answerOf(src)
			if err != nil {
				return nil, fmt.Errorf("oracle on %s/%d: %w", k.name, i, err)
			}
			for _, f := range w.formats {
				reqs = append(reqs, request{
					ID: fmt.Sprintf("%s/%d/%s", k.name, i, f), Kind: k.name, Inst: i, Format: f,
					Query: src, Vars: vars, Want: want,
				})
			}
		}
	}
	return reqs, nil
}

// scheduleCycles is how many cycles (one slot per unit of weight) a
// schedule holds before it repeats.
const scheduleCycles = 16

// buildSchedule returns the request order clients draw from. Kinds are
// interleaved by smooth weighted round-robin, so every stretch of the
// schedule holds the kinds in their mix proportions and each second of
// a run does about the same work, which is what makes its seconds
// comparable (see perSecond). The seed permutes the kinds (which breaks
// the interleave's ties), offsets each kind's credit and picks where
// each kind starts stepping through its variants (constants × formats).
// The result indexes reqs and depends only on (w, reqs, seed).
func buildSchedule(w workloadDef, reqs []request, seed int64) []int {
	variants := map[string][]int{}
	for i, r := range reqs {
		variants[r.Kind] = append(variants[r.Kind], i)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5c4ed))
	mix := append([]mixEntry(nil), w.mix...)
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	total := 0
	credit, next := make([]int, len(mix)), make([]int, len(mix))
	for i, m := range mix {
		total += m.weight
		credit[i] = rng.Intn(m.weight)
		next[i] = rng.Intn(len(variants[m.kind]))
	}
	sched := make([]int, 0, scheduleCycles*total)
	for len(sched) < cap(sched) {
		best := 0
		for i, m := range mix {
			credit[i] += m.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		v := variants[mix[best].kind]
		sched = append(sched, v[next[best]%len(v)])
		next[best]++
	}
	return sched
}

// replayInstances is how many constants per kind the traced replay
// covers: instances of one kind cost alike, and the replay's time is
// better spent on repetitions.
const replayInstances = 3

// replayWeights gives each request its weight in the replay's means:
// its kind's share of the mix, split evenly over the kind's replayed
// variants; 0 for requests the replay skips.
func replayWeights(w workloadDef, reqs []request) []float64 {
	total, variants := 0, map[string]int{}
	for _, m := range w.mix {
		total += m.weight
	}
	for _, r := range reqs {
		if r.Inst < replayInstances {
			variants[r.Kind]++
		}
	}
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		if r.Inst >= replayInstances {
			continue
		}
		for _, m := range w.mix {
			if m.kind == r.Kind {
				out[i] = float64(m.weight) / float64(total) / float64(variants[r.Kind])
			}
		}
	}
	return out
}

// owner says which kind a percentile falls in and how far, in
// percentile points, it is from the nearest neighbouring kind.
type owner struct {
	Kind   string
	Margin float64
}

// ownersOf locates percentiles in a mix whose kinds are ordered by
// ascending latency: kind i owns the percentile range its cumulative
// weight share spans. A percentile is steady only while it stays inside
// one kind's range, so the mixes keep p50 and p95 at least
// ownerMargin points from a boundary.
func ownersOf(mix []mixEntry, ps ...float64) []owner {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	out := make([]owner, len(ps))
	for i, p := range ps {
		lo := 0.0
		for _, m := range mix {
			hi := lo + 100*float64(m.weight)/float64(total)
			if p <= hi || m == mix[len(mix)-1] {
				margin := 100.0
				if lo > 0 {
					margin = p - lo
				}
				if hi < 100 && hi-p < margin {
					margin = hi - p
				}
				out[i] = owner{Kind: m.kind, Margin: margin}
				break
			}
			lo = hi
		}
	}
	return out
}

// ownerMargin is the least distance, in percentile points, p50 and p95
// keep from a neighbouring kind's mass.
const ownerMargin = 5.0
