package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// Test fixtures mirroring internal/opt's helpers.

func chainQuery(n int) *sparql.Query {
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(fmt.Sprintf("x%d", i)),
			P: sparql.I(fmt.Sprintf("p%d", i)),
			O: sparql.V(fmt.Sprintf("x%d", i+1)),
		})
	}
	return q
}

func cycleQuery(n int) *sparql.Query {
	q := chainQuery(n - 1)
	q.Patterns = append(q.Patterns, sparql.TriplePattern{
		S: sparql.V(fmt.Sprintf("x%d", n-1)), P: sparql.I("pc"), O: sparql.V("x0"),
	})
	return q
}

func starQuery(n int) *sparql.Query {
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(fmt.Sprintf("s%d", i)), P: sparql.I(fmt.Sprintf("p%d", i)), O: sparql.V("c"),
		})
	}
	return q
}

func randomConnectedQuery(r *rand.Rand, n int) *sparql.Query {
	q := &sparql.Query{}
	nvars := n + 2
	for i := 0; i < n; i++ {
		var s, o string
		if i == 0 {
			s, o = "v0", "v1"
		} else {
			prev := q.Patterns[r.Intn(i)]
			anchor := prev.S.Value
			if r.Intn(2) == 0 {
				anchor = prev.O.Value
			}
			other := fmt.Sprintf("v%d", r.Intn(nvars))
			if r.Intn(2) == 0 {
				s, o = anchor, other
			} else {
				s, o = other, anchor
			}
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(s), P: sparql.I(fmt.Sprintf("p%d", r.Intn(4))), O: sparql.V(o),
		})
	}
	return q
}

func makeInput(t *testing.T, q *sparql.Query, seed int64, m partition.Method) *opt.Input {
	t.Helper()
	views, err := querygraph.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	s := &stats.Stats{}
	for _, tp := range q.Patterns {
		card := float64(1 + r.Intn(1000))
		b := map[string]float64{}
		for _, v := range tp.Vars() {
			b[v] = float64(1 + r.Intn(int(card)))
		}
		s.Patterns = append(s.Patterns, stats.PatternStats{Card: card, Bindings: b})
	}
	est, err := stats.NewEstimator(q, s)
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m}
}

func TestDPBushyFindsValidPlans(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(5))
		in := makeInput(t, q, int64(trial), partition.HashSO)
		res, err := DPBushy(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, res.Plan.Format())
		}
		if res.Plan.Set != in.Views.Join.All() {
			t.Errorf("trial %d: plan covers %v", trial, res.Plan.Set)
		}
	}
}

func TestDPBushyNeverBeatsTDCMD(t *testing.T) {
	// DP-Bushy's space is a subset of TD-CMD's (it considers all
	// binary divisions — the connected ones TD-CMD also has — plus one
	// multiway join per subquery), so its best plan cannot be cheaper.
	r := rand.New(rand.NewSource(37))
	sometimesWorse := 0
	for trial := 0; trial < 20; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(4))
		in := makeInput(t, q, int64(50+trial), partition.HashSO)
		full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DPBushy(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Cost < full.Plan.Cost-1e-6 {
			t.Errorf("trial %d: DP-Bushy cost %v < TD-CMD optimum %v", trial, res.Plan.Cost, full.Plan.Cost)
		}
		if res.Plan.Cost > full.Plan.Cost+1e-6 {
			sometimesWorse++
		}
	}
	t.Logf("DP-Bushy strictly worse on %d/20 trials", sometimesWorse)
}

func TestDPBushyDisconnected(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . }`)
	in := makeInput(t, q, 1, partition.Method{})
	if _, err := DPBushy(context.Background(), in); !errors.Is(err, querygraph.ErrUnsupported) {
		t.Errorf("disconnected query: err = %v, want querygraph.ErrUnsupported", err)
	}
}

func TestDPBushyMultiwayOnStar(t *testing.T) {
	// On a star query DP-Bushy must consider the n-way join.
	in := makeInput(t, starQuery(5), 3, partition.Method{})
	res, err := DPBushy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// With no partitioning, flat 5-way repartition is typically best;
	// at minimum the plan must be valid and complete.
	if res.Plan.Set != in.Views.Join.All() {
		t.Error("incomplete plan")
	}
}

func TestDPBushySubqueryExplosion(t *testing.T) {
	// DP-Bushy visits disconnected subqueries too: for a chain of n
	// patterns it memoizes far more subqueries than the n(n+1)/2
	// connected segments.
	in := makeInput(t, chainQuery(10), 4, partition.Method{})
	res, err := DPBushy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	connected := int64(10 * 11 / 2)
	if res.Counter.Subqueries <= connected {
		t.Errorf("DP-Bushy visited %d subqueries, expected more than the %d connected ones",
			res.Counter.Subqueries, connected)
	}
}

func TestMSCProducesFlatPlans(t *testing.T) {
	in := makeInput(t, starQuery(6), 5, partition.HashSO)
	res, err := MSC(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// A star is one clique: a single flat join (depth 2).
	if res.Plan.Depth() != 2 {
		t.Errorf("star plan depth = %d, want 2\n%s", res.Plan.Depth(), res.Plan.Format())
	}
	// Under hash partitioning, the star is local.
	if res.Plan.Alg != plan.LocalJoin {
		t.Errorf("expected local join, got %v", res.Plan.Alg)
	}
}

func TestMSCChainLevels(t *testing.T) {
	// A chain of 8 has a unique minimum cover per level (pairs), so
	// exactly one plan is explored (paper Table VII: MSC chain-8 = 1),
	// with ⌈log2 8⌉ = 3 join levels.
	in := makeInput(t, chainQuery(8), 6, partition.Method{})
	res, err := MSC(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.Plans != 1 {
		t.Errorf("MSC explored %d plans on chain-8, paper reports 1", res.Counter.Plans)
	}
	if res.Plan.Depth() != 4 { // 3 join levels + scan level
		t.Errorf("depth = %d, want 4\n%s", res.Plan.Depth(), res.Plan.Format())
	}
}

func TestMSCCycleCoverCount(t *testing.T) {
	// Paper Table VII reports 4 plans for cycle-8: the four rotations
	// of the pairing cover.
	in := makeInput(t, cycleQuery(8), 7, partition.Method{})
	res, err := MSC(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.Plans != 4 {
		t.Errorf("MSC explored %d plans on cycle-8, paper reports 4", res.Counter.Plans)
	}
}

func TestMSCValidOnRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(5))
		in := makeInput(t, q, int64(80+trial), partition.HashSO)
		res, err := MSC(context.Background(), in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, res.Plan.Format())
		}
		full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Cost < full.Plan.Cost-1e-6 {
			t.Errorf("trial %d: MSC cost %v < TD-CMD optimum %v", trial, res.Plan.Cost, full.Plan.Cost)
		}
	}
}

func TestMSCNoBroadcastJoins(t *testing.T) {
	// MSC plans use repartition/local joins only (§V-B: "MSC generates
	// flat plans, which cannot take advantage of broadcast joins").
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(4))
		in := makeInput(t, q, int64(90+trial), partition.HashSO)
		res, err := MSC(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		var check func(n *plan.Node)
		check = func(n *plan.Node) {
			if n.Alg == plan.BroadcastJoin {
				t.Fatalf("trial %d: MSC emitted a broadcast join", trial)
			}
			for _, ch := range n.Children {
				check(ch)
			}
		}
		check(res.Plan)
	}
}

func TestMSCDisconnected(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . }`)
	in := makeInput(t, q, 8, partition.Method{})
	if _, err := MSC(context.Background(), in); !errors.Is(err, querygraph.ErrUnsupported) {
		t.Errorf("disconnected query: err = %v, want querygraph.ErrUnsupported", err)
	}
}

func TestBinaryDPOnlyBinaryJoins(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(6))
		in := makeInput(t, q, int64(110+trial), partition.HashSO)
		res, err := BinaryDP(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var check func(n *plan.Node)
		check = func(n *plan.Node) {
			// Local joins may be k-way (they come from the partition-
			// aware shortcut); distributed joins must be binary.
			if (n.Alg == plan.BroadcastJoin || n.Alg == plan.RepartitionJoin) && len(n.Children) != 2 {
				t.Fatalf("trial %d: %d-way distributed join in BinaryDP plan", trial, len(n.Children))
			}
			for _, ch := range n.Children {
				check(ch)
			}
		}
		check(res.Plan)
	}
}

func TestBinaryDPNeverBeatsTDCMD(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 15; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(4))
		in := makeInput(t, q, int64(130+trial), partition.Method{})
		full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BinaryDP(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Cost < full.Plan.Cost-1e-6 {
			t.Errorf("trial %d: BinaryDP cost %v < TD-CMD %v", trial, res.Plan.Cost, full.Plan.Cost)
		}
	}
}

func TestBinaryDPMatchesTDCMDOnChains(t *testing.T) {
	// On chains every cmd is binary, so the two optimizers explore the
	// same space and must agree on cost.
	for _, n := range []int{3, 6, 9} {
		in := makeInput(t, chainQuery(n), int64(n), partition.Method{})
		full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BinaryDP(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Plan.Cost-full.Plan.Cost) > 1e-6 {
			t.Errorf("chain %d: BinaryDP %v vs TD-CMD %v", n, res.Plan.Cost, full.Plan.Cost)
		}
	}
}

func TestBaselineCancellation(t *testing.T) {
	// DP-Bushy on a 24-pattern chain visits ~2^24 subqueries; a short
	// deadline must abort it. MSC on a dense query likewise.
	in := makeInput(t, chainQuery(24), 9, partition.Method{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := DPBushy(ctx, in); err == nil {
		t.Error("DP-Bushy ignored the deadline")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	in2 := makeInput(t, starQuery(12), 10, partition.Method{})
	if _, err := MSC(ctx2, in2); err == nil {
		t.Error("MSC planned under a cancelled context")
	}
}

// TestRejectedBeforeSearch holds every optimizer to one failure shape:
// a disconnected query matches querygraph.ErrUnsupported, and an
// already-cancelled context fails with a *obs.PhaseError for phase
// "optimize" that matches context.Canceled, without searching.
func TestRejectedBeforeSearch(t *testing.T) {
	disconnected := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . }`)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	runs := append(append([]Optimizer(nil), Optimizers...), Optimizer{CLI: "dpccp", Name: "DPccp", Run: DPccp})
	for _, o := range runs {
		t.Run(o.CLI, func(t *testing.T) {
			in := makeInput(t, disconnected, 1, partition.HashSO)
			if _, err := o.Run(context.Background(), in); !errors.Is(err, querygraph.ErrUnsupported) {
				t.Errorf("disconnected query: err = %v, want querygraph.ErrUnsupported", err)
			}
			in = makeInput(t, starQuery(12), 10, partition.HashSO)
			_, err := o.Run(cancelled, in)
			var pe *obs.PhaseError
			if !errors.Is(err, context.Canceled) || !errors.As(err, &pe) || pe.Phase != "optimize" {
				t.Errorf("cancelled context: err = %v, want a *obs.PhaseError for optimize matching context.Canceled", err)
			}
		})
	}
}

func TestDPBushyTimeExplodesOnChains(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	// The paper's core complexity claim (§III): generate-and-test
	// binary division makes DP-Bushy's work grow ~3^n on chains while
	// TD-CMD's grows ~n^3. Compare enumerated subqueries at n=14.
	in := makeInput(t, chainQuery(14), 11, partition.Method{})
	full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DPBushy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.Subqueries < 20*full.Counter.Subqueries {
		t.Errorf("DP-Bushy visited %d subqueries vs TD-CMD's %d; expected an exponential gap",
			res.Counter.Subqueries, full.Counter.Subqueries)
	}
}

func TestMSCFlattestPlanOnFig1(t *testing.T) {
	// Paper Fig. 3b: MSC's plan for the running example has two join
	// levels (three first-level joins, one root join) — the flattest
	// shape. Our MSC must find a plan at most that deep.
	q := sparql.MustParse(`SELECT * WHERE {
		?b <p1> ?a .
		?c <p2> ?a .
		?a <p3> ?e .
		?e <p4> ?g .
		?b <p5> ?f .
		?c <p6> ?d .
		?a <p7> ?d .
	}`)
	in := makeInput(t, q, 777, partition.HashSO)
	res, err := MSC(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Depth counts the scan level too: scans + 2 join levels = 3.
	if res.Plan.Depth() > 3 {
		t.Errorf("MSC plan depth %d, want ≤ 3 (two join levels, Fig. 3b)\n%s",
			res.Plan.Depth(), res.Plan.Format())
	}
}
