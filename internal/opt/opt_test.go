package opt

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// synthStats attaches random statistics to a query as in §V-A: the
// cardinality of each pattern is uniform in [1, 1000], the binding
// count of each variable uniform in [1, card].
func synthStats(r *rand.Rand, q *sparql.Query) *stats.Stats {
	s := &stats.Stats{}
	for _, tp := range q.Patterns {
		card := float64(1 + r.Intn(1000))
		b := map[string]float64{}
		for _, v := range tp.Vars() {
			b[v] = float64(1 + r.Intn(int(card)))
		}
		s.Patterns = append(s.Patterns, stats.PatternStats{Card: card, Bindings: b})
	}
	return s
}

func makeInput(t *testing.T, q *sparql.Query, seed int64, m partition.Method) *Input {
	t.Helper()
	views, err := querygraph.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stats.NewEstimator(q, synthStats(rand.New(rand.NewSource(seed)), q))
	if err != nil {
		t.Fatal(err)
	}
	return &Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m}
}

func TestTChainFormula(t *testing.T) {
	// Eq. 8: T(Q_chain) = (n³ − n) / 6 — the number of cmds TD-CMD
	// enumerates across all connected subqueries.
	for _, n := range []int{4, 8, 12, 16} {
		in := makeInput(t, chainQuery(n), 1, partition.Method{})
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		want := int64((n*n*n - n) / 6)
		if res.Counter.CMDs != want {
			t.Errorf("chain %d: enumerated %d cmds, want T(Q) = %d", n, res.Counter.CMDs, want)
		}
	}
}

func TestTCycleFormula(t *testing.T) {
	// Eq. 9: T(Q_cycle) = (n³ − n²) / 2.
	for _, n := range []int{4, 6, 8, 10} {
		in := makeInput(t, cycleQuery(n), 2, partition.Method{})
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		want := int64((n*n*n - n*n) / 2)
		if res.Counter.CMDs != want {
			t.Errorf("cycle %d: enumerated %d cmds, want T(Q) = %d", n, res.Counter.CMDs, want)
		}
	}
}

func TestTStarFormula(t *testing.T) {
	// Eq. 7: T(Q_star) = Σ_{k=2..n} (B_k − 1)·C(n,k).
	bell := []int{1, 1, 2, 5, 15, 52, 203, 877, 4140}
	binom := func(n, k int) int {
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for _, n := range []int{3, 5, 8} {
		in := makeInput(t, starQuery(n), 3, partition.Method{})
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for k := 2; k <= n; k++ {
			want += (bell[k] - 1) * binom(n, k)
		}
		if res.Counter.CMDs != int64(want) {
			t.Errorf("star %d: enumerated %d cmds, want T(Q) = %d", n, res.Counter.CMDs, want)
		}
	}
}

// oracleBestCost computes the optimal plan cost by exhaustive
// memoized recursion over the oracle cmd enumerator — an independent
// implementation to cross-check TD-CMD's optimality.
func oracleBestCost(in *Input) float64 {
	jg := in.Views.Join
	checker := partition.NewLocalChecker(in.Method, in.Views.Query)
	memo := map[bitset.TPSet]float64{}
	var best func(s bitset.TPSet) float64
	best = func(s bitset.TPSet) float64 {
		if c, ok := memo[s]; ok {
			return c
		}
		if s.Len() == 1 {
			c := in.Params.Scan(in.Est.Cardinality(s))
			memo[s] = c
			return c
		}
		bestCost := math.Inf(1)
		if checker.IsLocal(s) {
			inputs := []float64{}
			maxScan := 0.0
			s.Each(func(tp int) bool {
				card := in.Est.Cardinality(bitset.Single(tp))
				inputs = append(inputs, card)
				if sc := in.Params.Scan(card); sc > maxScan {
					maxScan = sc
				}
				return true
			})
			bestCost = maxScan + in.Params.Local(inputs, in.Est.Cardinality(s))
		}
		for _, key := range oracleCMDs(jg, s) {
			parts, _ := parseCmdKey(key)
			maxChild := 0.0
			inputs := make([]float64, len(parts))
			for i, p := range parts {
				if c := best(p); c > maxChild {
					maxChild = c
				}
				inputs[i] = in.Est.Cardinality(p)
			}
			out := in.Est.Cardinality(s)
			for _, opCost := range []float64{
				in.Params.Broadcast(inputs, out),
				in.Params.Repartition(inputs, out),
			} {
				if c := maxChild + opCost; c < bestCost {
					bestCost = c
				}
			}
		}
		memo[s] = bestCost
		return bestCost
	}
	return best(jg.All())
}

func TestTDCMDOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	methods := []partition.Method{{}, partition.HashSO, partition.PathBMC}
	for trial := 0; trial < 30; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(5))
		in := makeInput(t, q, int64(trial), methods[trial%len(methods)])
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: invalid plan: %v", trial, err)
		}
		want := oracleBestCost(in)
		if math.Abs(res.Plan.Cost-want) > 1e-6*math.Max(1, want) {
			t.Errorf("trial %d: TD-CMD cost %v, oracle optimum %v\n%s",
				trial, res.Plan.Cost, want, res.Plan.Format())
		}
	}
}

func TestPrunedNeverBeatsTDCMD(t *testing.T) {
	// TD-CMDP and HGR search subsets of TD-CMD's space, so their plan
	// costs are lower-bounded by TD-CMD's.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(5))
		in := makeInput(t, q, int64(100+trial), partition.HashSO)
		full, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{TDCMDP, HGRTDCMD, TDAuto} {
			res, err := Optimize(context.Background(), in, algo)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Fatalf("trial %d %v: invalid plan: %v", trial, algo, err)
			}
			if res.Plan.Cost < full.Plan.Cost-1e-6 {
				t.Errorf("trial %d: %v found cost %v below TD-CMD optimum %v",
					trial, algo, res.Plan.Cost, full.Plan.Cost)
			}
			if res.Plan.Set != full.Plan.Set {
				t.Errorf("trial %d: %v plan covers %v, want %v", trial, algo, res.Plan.Set, full.Plan.Set)
			}
		}
	}
}

func TestPruningShrinksSearchSpace(t *testing.T) {
	// On a star query, Rule 1 collapses the Bell-number space.
	in := makeInput(t, starQuery(8), 11, partition.HashSO)
	full, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Optimize(context.Background(), in, TDCMDP)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Counter.CMDs >= full.Counter.CMDs {
		t.Errorf("TD-CMDP enumerated %d cmds, TD-CMD %d; pruning had no effect",
			pruned.Counter.CMDs, full.Counter.CMDs)
	}
}

func TestLocalShortcut(t *testing.T) {
	// A star query is fully local under hash partitioning, so Rule 3
	// makes TD-CMDP return the flat local plan without enumerating.
	in := makeInput(t, starQuery(6), 12, partition.HashSO)
	res, err := Optimize(context.Background(), in, TDCMDP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.CMDs != 0 {
		t.Errorf("local shortcut still enumerated %d cmds", res.Counter.CMDs)
	}
	if res.Plan.Alg != plan.LocalJoin || len(res.Plan.Children) != 6 {
		t.Errorf("expected a 6-way local join, got\n%s", res.Plan.Format())
	}
}

func TestLocalPlanPreferredByTDCMD(t *testing.T) {
	// Even without the shortcut, the local plan should win on a local
	// query: local joins dominate the alternatives under Table II.
	in := makeInput(t, starQuery(5), 13, partition.HashSO)
	res, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Alg != plan.LocalJoin {
		t.Errorf("TD-CMD did not pick the local plan:\n%s", res.Plan.Format())
	}
}

func TestHGRGroups(t *testing.T) {
	// Under path partitioning the whole fig1 query splits into few
	// local groups; every group must be a local query and they must
	// partition the pattern set.
	q := sparql.MustParse(fig1)
	in := makeInput(t, q, 14, partition.PathBMC)
	res, err := Optimize(context.Background(), in, HGRTDCMD)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups == nil {
		t.Fatal("HGR result missing groups")
	}
	checker := partition.NewLocalChecker(partition.PathBMC, in.Views.Query)
	var union bitset.TPSet
	for _, g := range res.Groups {
		if union.Overlaps(g) {
			t.Errorf("overlapping groups")
		}
		union = union.Union(g)
		if !checker.IsLocal(g) {
			t.Errorf("group %v is not a local query", g)
		}
		if !in.Views.Join.Connected(g) {
			t.Errorf("group %v is disconnected", g)
		}
	}
	if union != bitset.Full(7) {
		t.Errorf("groups cover %v, want all 7 patterns", union)
	}
	if len(res.Groups) >= 7 {
		t.Errorf("no reduction happened: %d groups", len(res.Groups))
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHGRWithoutMethodDegenerates(t *testing.T) {
	in := makeInput(t, chainQuery(5), 15, partition.Method{})
	res, err := Optimize(context.Background(), in, HGRTDCMD)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 5 {
		t.Errorf("expected singleton groups, got %v", res.Groups)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHGRReducesSearchSpace(t *testing.T) {
	in := makeInput(t, sparql.MustParse(fig1), 16, partition.HashSO)
	full, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	hgr, err := Optimize(context.Background(), in, HGRTDCMD)
	if err != nil {
		t.Fatal(err)
	}
	if hgr.Counter.CMDs >= full.Counter.CMDs {
		t.Errorf("HGR enumerated %d cmds, TD-CMD %d", hgr.Counter.CMDs, full.Counter.CMDs)
	}
}

func TestChooseAuto(t *testing.T) {
	cases := []struct {
		name string
		q    *sparql.Query
		want Algorithm
	}{
		// Low-degree acyclic/single-cycle: TD-CMD.
		{"chain20", chainQuery(20), TDCMD},
		{"cycle12", cycleQuery(12), TDCMD},
		// High degree, moderate size: TD-CMDP (θ_d = 5, θ_n = 30).
		{"star8", starQuery(8), TDCMDP},
		{"star29", starQuery(29), TDCMDP},
		// High degree, large: HGR.
		{"star35", starQuery(35), HGRTDCMD},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jg := mustJG(t, c.q)
			if got := chooseAuto(jg); got != c.want {
				t.Errorf("chooseAuto = %v, want %v", got, c.want)
			}
		})
	}
}

func TestChooseAutoMultiCycle(t *testing.T) {
	// More join variables than patterns (ratio < 1): a pair of
	// patterns sharing all three variables.
	q := &sparql.Query{Patterns: []sparql.TriplePattern{
		{S: sparql.V("a"), P: sparql.V("b"), O: sparql.V("c")},
		{S: sparql.V("a"), P: sparql.V("b"), O: sparql.V("c")},
	}}
	jg := mustJG(t, q)
	if jg.NumJoinVars() <= jg.NumTP {
		t.Fatal("test premise: want more join vars than patterns")
	}
	if got := chooseAuto(jg); got != TDCMD { // |V_T| = 2 < λ_n
		t.Errorf("chooseAuto = %v, want TD-CMD", got)
	}
}

func TestOptimizeDisconnected(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . }`)
	in := makeInput(t, q, 17, partition.Method{})
	if _, err := Optimize(context.Background(), in, TDCMD); err == nil {
		t.Error("disconnected query accepted")
	}
}

func TestOptimizeSinglePattern(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . }`)
	in := makeInput(t, q, 18, partition.HashSO)
	for _, algo := range []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto} {
		res, err := Optimize(context.Background(), in, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Plan.Alg != plan.Scan {
			t.Errorf("%v: expected scan plan", algo)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	in := makeInput(t, chainQuery(3), 19, partition.Method{})
	if _, err := Optimize(context.Background(), &Input{Query: in.Query}, TDCMD); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := Optimize(context.Background(), &Input{Est: in.Est}, TDCMD); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := Optimize(context.Background(), in, Algorithm(99)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestOptimizeCancellation(t *testing.T) {
	// A 30-pattern star explodes without pruning; a tiny deadline must
	// abort with the context error, not hang.
	in := makeInput(t, starQuery(30), 20, partition.Method{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Optimize(ctx, in, TDCMD)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestResultUsedField(t *testing.T) {
	in := makeInput(t, chainQuery(6), 21, partition.HashSO)
	res, err := Optimize(context.Background(), in, TDAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Used != TDCMD { // chain: low degree → TD-CMD
		t.Errorf("Used = %v, want TD-CMD", res.Used)
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{TDCMD: "TD-CMD", TDCMDP: "TD-CMDP", HGRTDCMD: "HGR-TD-CMD", TDAuto: "TD-Auto"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestFlatPlanNotAlwaysBest(t *testing.T) {
	// §IV: "the flattest plan is not always the best plan". Verify
	// that on some random inputs TD-CMD's optimum is deeper than the
	// flattest possible plan (depth 2).
	r := rand.New(rand.NewSource(23))
	deeper := 0
	for trial := 0; trial < 40; trial++ {
		q := randomConnectedQuery(r, 5+r.Intn(3))
		in := makeInput(t, q, int64(300+trial), partition.Method{})
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Depth() > 2 {
			deeper++
		}
	}
	if deeper == 0 {
		t.Error("TD-CMD never chose a plan deeper than the flattest; suspicious")
	}
}

func TestMaximumQuerySize(t *testing.T) {
	// The boundary case: a 64-pattern chain (the bitset limit).
	// T(chain_64) = (64³−64)/6 = 43,680 — TD-CMD must handle it fast.
	n := 64
	in := makeInput(t, chainQuery(n), 64, partition.Method{})
	res, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	want := int64((n*n*n - n) / 6)
	if res.Counter.CMDs != want {
		t.Errorf("chain-64: %d cmds, want %d", res.Counter.CMDs, want)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConclusionsHoldAtLargeCardinalityRange(t *testing.T) {
	// §V-A: "we have also used the range between 1 to 100,000, which
	// does not affect any of our conclusions". Re-run the core
	// invariants (TD-CMD optimal, heuristics never better, spaces
	// confined) with the wider statistics range.
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(4))
		views, err := querygraph.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		s := &stats.Stats{}
		rr := rand.New(rand.NewSource(int64(trial)))
		for _, tp := range q.Patterns {
			card := float64(1 + rr.Intn(100000))
			b := map[string]float64{}
			for _, v := range tp.Vars() {
				b[v] = float64(1 + rr.Intn(int(card)))
			}
			s.Patterns = append(s.Patterns, stats.PatternStats{Card: card, Bindings: b})
		}
		est, err := stats.NewEstimator(q, s)
		if err != nil {
			t.Fatal(err)
		}
		in := &Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: partition.HashSO}
		full, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleBestCost(in); math.Abs(full.Plan.Cost-want) > 1e-6*math.Max(1, want) {
			t.Errorf("trial %d: TD-CMD not optimal at wide range: %v vs %v", trial, full.Plan.Cost, want)
		}
		for _, algo := range []Algorithm{TDCMDP, HGRTDCMD, TDAuto} {
			res, err := Optimize(context.Background(), in, algo)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan.Cost < full.Plan.Cost-1e-6 {
				t.Errorf("trial %d: %v beat the optimum at wide range", trial, algo)
			}
		}
	}
}
