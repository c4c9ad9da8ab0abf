package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/querygraph"
)

// Optimizer is one of the eight optimizers the sparqlopt CLI and the
// paper's experiments run.
type Optimizer struct {
	// CLI is its sparqlopt -algorithm name.
	CLI string
	// Name is its name in the paper's tables.
	Name string
	// Run optimizes one input.
	Run func(context.Context, *opt.Input) (*opt.Result, error)
}

// Optimizers is the one table of the eight: the five algorithms of
// opt.Optimize, which the serving path runs too
// (sparqlopt.AlgorithmByName), then the paper's two competitors and the
// binary ablation.
var Optimizers = []Optimizer{
	optimizer("td-cmd", opt.TDCMD),
	optimizer("td-cmdp", opt.TDCMDP),
	optimizer("hgr-td-cmd", opt.HGRTDCMD),
	optimizer("td-auto", opt.TDAuto),
	optimizer("greedy", opt.Greedy),
	{"msc", "MSC", MSC},
	{"dp-bushy", "DP-Bushy", DPBushy},
	{"binary-dp", "BinaryDP", BinaryDP},
}

func optimizer(cli string, a opt.Algorithm) Optimizer {
	return Optimizer{cli, a.String(), func(ctx context.Context, in *opt.Input) (*opt.Result, error) {
		return opt.Optimize(ctx, in, a)
	}}
}

// ByName returns the optimizer whose CLI name is name.
func ByName(name string) (Optimizer, error) {
	for _, o := range Optimizers {
		if o.CLI == name {
			return o, nil
		}
	}
	return Optimizer{}, fmt.Errorf("unknown algorithm %q", name)
}

// Select returns the optimizers with the given CLI names, in order. It
// panics on an unknown name: callers name optimizers in code.
func Select(names ...string) []Optimizer {
	out := make([]Optimizer, len(names))
	for i, name := range names {
		o, err := ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = o
	}
	return out
}

// sharedVar returns a join variable with neighbors on both sides, or -1.
func sharedVar(jg *querygraph.JoinGraph, a, b bitset.TPSet) int {
	for j := range jg.Vars {
		if jg.Ntp[j].Overlaps(a) && jg.Ntp[j].Overlaps(b) {
			return j
		}
	}
	return -1
}

// maxMultiwayDivision returns the k-way division with the largest k
// that DP-Bushy considers: the join variable with the most neighbors
// in s, with one part grown around each neighbor. Patterns that are
// not neighbors join the part of the nearest neighbor (breadth-first
// over the join graph with the variable removed). Returns k ≤ 2 parts
// when no variable yields a wider join.
func maxMultiwayDivision(jg *querygraph.JoinGraph, s bitset.TPSet) (int, []bitset.TPSet) {
	bestVar, bestK := -1, 2
	for j := range jg.Vars {
		if k := jg.Ntp[j].Intersect(s).Len(); k > bestK {
			bestVar, bestK = j, k
		}
	}
	if bestVar < 0 {
		return -1, nil
	}
	// Each component of s − v_j attaches to the part of one of its
	// neighbors of v_j (it contains at least one, since s is connected).
	neighbors := jg.Ntp[bestVar].Intersect(s)
	parts := make([]bitset.TPSet, 0, bestK)
	for _, comp := range jg.ComponentsExcluding(s, bestVar) {
		mine := comp.Intersect(neighbors)
		if mine.Len() <= 1 {
			parts = append(parts, comp)
			continue
		}
		// A component with several neighbors splits around them: each
		// neighbor seeds a part; remaining patterns go to the first
		// part they touch.
		sub := make([]bitset.TPSet, 0, mine.Len())
		mine.Each(func(tp int) bool {
			sub = append(sub, bitset.Single(tp))
			return true
		})
		rest := comp.Diff(mine)
		for !rest.IsEmpty() {
			progressed := false
			for i := range sub {
				grow := jg.AdjOf(comp, sub[i]).Intersect(rest)
				if !grow.IsEmpty() {
					sub[i] = sub[i].Union(grow)
					rest = rest.Diff(grow)
					progressed = true
				}
			}
			if !progressed {
				// Unreachable without v_j; give up on splitting.
				sub[0] = sub[0].Union(rest)
				rest = 0
			}
		}
		parts = append(parts, sub...)
	}
	return bestVar, parts
}
