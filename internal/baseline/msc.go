package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
)

// MSC runs the CliqueSquare-style flat-plan optimizer: at every level
// it covers the current inputs with a minimum number of join cliques
// (one clique per join variable), explores every minimum cover, and
// recurses until a single input remains. Plans are flat — multi-way
// repartition joins (or local joins where the partitioning allows),
// never broadcast joins — and the exact minimum set cover run at each
// level makes optimization time grow exponentially with query size.
func MSC(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	k, err := opt.NewKit(ctx, in)
	if err != nil {
		return nil, err
	}
	m := &msc{Kit: k}
	// Level 0: one input per triple pattern.
	inputs := make([]*plan.Node, k.JG.NumTP)
	for i := range inputs {
		inputs[i] = k.Leaf(i)
	}
	m.explore(inputs)
	if err := k.Err(); err != nil {
		return nil, err
	}
	if m.best == nil {
		return nil, fmt.Errorf("baseline: MSC found no plan")
	}
	return &opt.Result{Plan: m.best, Counter: m.counter}, nil
}

type msc struct {
	*opt.Kit
	best    *plan.Node
	counter opt.Counter
}

// explore recursively builds one more plan level for every minimum
// cover of the current inputs.
func (m *msc) explore(inputs []*plan.Node) {
	if m.Cancelled() {
		return
	}
	if len(inputs) == 1 {
		m.counter.Plans++
		// MSC's objective is the *flattest* plan (minimum number of
		// levels); cost breaks ties among equally flat plans.
		if m.best == nil ||
			inputs[0].Depth() < m.best.Depth() ||
			(inputs[0].Depth() == m.best.Depth() && inputs[0].Cost < m.best.Cost) {
			m.best = inputs[0]
		}
		return
	}
	cliques := m.cliques(inputs)
	all := bitset.Full(len(inputs))
	size := minCoverSize(cliques, all)
	if size < 0 || size >= len(inputs) {
		// No progress possible: the state is disconnected.
		return
	}
	m.eachMinCover(cliques, all, size, func(chosen []clique) bool {
		// An input covered by several chosen cliques can be joined in
		// any one of them; CliqueSquare explores every assignment,
		// which is what makes its plan space (and running time)
		// explode on dense queries.
		m.eachAssignment(inputs, chosen, func(groups [][]*plan.Node) bool {
			m.explore(m.buildLevel(groups, chosen))
			return m.Err() == nil
		})
		return m.Err() == nil
	})
}

// eachAssignment enumerates every function from inputs to the chosen
// cliques that cover them.
func (m *msc) eachAssignment(inputs []*plan.Node, chosen []clique, f func([][]*plan.Node) bool) {
	groups := make([][]*plan.Node, len(chosen))
	var rec func(i int) bool
	rec = func(i int) bool {
		if m.Cancelled() {
			return false
		}
		if i == len(inputs) {
			return f(groups)
		}
		ok := true
		for ci, c := range chosen {
			if !c.members.Has(i) {
				continue
			}
			groups[ci] = append(groups[ci], inputs[i])
			ok = rec(i + 1)
			groups[ci] = groups[ci][:len(groups[ci])-1]
			if !ok {
				return false
			}
		}
		return ok
	}
	rec(0)
}

// clique is one candidate join: the inputs sharing variable v.
type clique struct {
	varIdx  int
	members bitset.TPSet // indexes into the current inputs slice
}

// cliques collects one clique per join variable of the current state,
// deduplicating identical member sets.
func (m *msc) cliques(inputs []*plan.Node) []clique {
	jg := m.JG
	var out []clique
	seen := map[bitset.TPSet]bool{}
	for j := range jg.Vars {
		var members bitset.TPSet
		for i, inp := range inputs {
			if jg.Ntp[j].Overlaps(inp.Set) {
				members = members.Add(i)
			}
		}
		if members.IsEmpty() || seen[members] {
			continue
		}
		seen[members] = true
		out = append(out, clique{varIdx: j, members: members})
	}
	return out
}

// minCoverSize returns the size of a minimum cover of universe by the
// cliques, or -1 when no cover exists.
func minCoverSize(cliques []clique, universe bitset.TPSet) int {
	for size := 1; size <= universe.Len(); size++ {
		found := false
		coverDFS(cliques, 0, universe, size, func([]clique) bool {
			found = true
			return false
		}, nil)
		if found {
			return size
		}
	}
	return -1
}

// eachMinCover enumerates every cover of exactly the given size.
func (m *msc) eachMinCover(cliques []clique, universe bitset.TPSet, size int, f func([]clique) bool) {
	coverDFS(cliques, 0, universe, size, f, m.Cancelled)
}

// coverDFS enumerates covers of `remaining` using cliques[idx:] with
// exactly `budget` more cliques. A simple reachability prune keeps the
// search from exploring hopeless branches.
func coverDFS(cliques []clique, idx int, remaining bitset.TPSet, budget int, f func([]clique) bool, cancelled func() bool) bool {
	if cancelled != nil && cancelled() {
		return false
	}
	if remaining.IsEmpty() {
		if budget == 0 {
			return f(nil)
		}
		return true
	}
	if budget == 0 || idx >= len(cliques) {
		return true
	}
	// Prune: the remaining cliques must still be able to cover.
	var reach bitset.TPSet
	for i := idx; i < len(cliques); i++ {
		reach = reach.Union(cliques[i].members)
	}
	if !remaining.SubsetOf(reach) {
		return true
	}
	// Branch 1: take cliques[idx] (only if it makes progress).
	if cliques[idx].members.Overlaps(remaining) {
		ok := coverDFS(cliques, idx+1, remaining.Diff(cliques[idx].members), budget-1, func(rest []clique) bool {
			return f(append([]clique{cliques[idx]}, rest...))
		}, cancelled)
		if !ok {
			return false
		}
	}
	// Branch 2: skip it.
	return coverDFS(cliques, idx+1, remaining, budget, f, cancelled)
}

// buildLevel materializes one plan level from an input-to-clique
// assignment; cliques assigned one input pass it through unchanged.
func (m *msc) buildLevel(assigned [][]*plan.Node, chosen []clique) []*plan.Node {
	jg := m.JG
	var next []*plan.Node
	for ci, group := range assigned {
		switch len(group) {
		case 0:
		case 1:
			next = append(next, group[0])
		default:
			// Copy: the caller's assignment buffers are reused across
			// the enumeration, but join nodes keep their children.
			children := append([]*plan.Node{}, group...)
			var set bitset.TPSet
			for _, g := range children {
				set = set.Union(g.Set)
			}
			joinVar := jg.Vars[chosen[ci].varIdx]
			m.counter.CMDs++
			if m.IsLocal(set) && allScans(children) {
				next = append(next, m.LocalJoin(set, joinVar, children))
			} else {
				next = append(next, plan.NewJoin(plan.RepartitionJoin, joinVar, children, m.In.Est.Cardinality(set), m.In.Params))
			}
		}
	}
	return next
}

// allScans reports whether every input is a base scan — only base
// data is co-partitioned, so local joins apply to first-level joins.
func allScans(group []*plan.Node) bool {
	for _, g := range group {
		if g.Alg != plan.Scan {
			return false
		}
	}
	return true
}
