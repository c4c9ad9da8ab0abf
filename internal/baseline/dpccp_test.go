package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
)

func TestConnectedSubgraphsExactlyOnce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(6))
		jg, err := querygraph.NewJoinGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[bitset.TPSet]int{}
		for _, s := range connectedSubgraphs(jg) {
			got[s]++
			if got[s] > 1 {
				t.Fatalf("subgraph %v enumerated twice", s)
			}
		}
		// Oracle: every subset, tested for connectivity.
		want := 0
		jg.All().Subsets(func(sub bitset.TPSet) bool {
			if jg.Connected(sub) {
				want++
				if got[sub] != 1 {
					t.Fatalf("connected subgraph %v missing", sub)
				}
			} else if got[sub] != 0 {
				t.Fatalf("disconnected subgraph %v enumerated", sub)
			}
			return true
		})
		if len(got) != want {
			t.Fatalf("enumerated %d subgraphs, oracle has %d", len(got), want)
		}
	}
}

func TestConnectedSubgraphsChainCount(t *testing.T) {
	// A chain of n patterns has n(n+1)/2 connected segments.
	for _, n := range []int{3, 6, 10} {
		jg, err := querygraph.NewJoinGraph(chainQuery(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(connectedSubgraphs(jg)); got != n*(n+1)/2 {
			t.Errorf("chain %d: %d subgraphs, want %d", n, got, n*(n+1)/2)
		}
	}
}

// TestDPccpMatchesBinaryDP: the bottom-up and top-down binary
// enumerators must agree on the optimal cost everywhere.
func TestDPccpMatchesBinaryDP(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	methods := []partition.Method{{}, partition.HashSO, partition.PathBMC}
	for trial := 0; trial < 25; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(6))
		in := makeInput(t, q, int64(900+trial), methods[trial%3])
		up, err := DPccp(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		down, err := BinaryDP(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(up.Plan.Cost-down.Plan.Cost) > 1e-6 {
			t.Errorf("trial %d: DPccp %v vs BinaryDP %v\n%s\nvs\n%s",
				trial, up.Plan.Cost, down.Plan.Cost, up.Plan.Format(), down.Plan.Format())
		}
		if err := up.Plan.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDPccpNeverBeatsTDCMD: binary plans are a subset of k-ary plans.
func TestDPccpNeverBeatsTDCMD(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	strictlyWorse := 0
	for trial := 0; trial < 25; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(5))
		in := makeInput(t, q, int64(950+trial), partition.Method{})
		full, err := opt.Optimize(context.Background(), in, opt.TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DPccp(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Cost < full.Plan.Cost-1e-6 {
			t.Errorf("trial %d: DPccp cost %v below k-ary optimum %v", trial, res.Plan.Cost, full.Plan.Cost)
		}
		if res.Plan.Cost > full.Plan.Cost+1e-6 {
			strictlyWorse++
		}
	}
	// The multiway advantage must show on at least some instances
	// (that is the paper's §IV motivation for not using TriAD's space).
	if strictlyWorse == 0 {
		t.Error("binary plans never lost to k-ary plans; ablation shows nothing")
	}
}

func TestDPccpDisconnected(t *testing.T) {
	q := randomConnectedQuery(rand.New(rand.NewSource(1)), 2)
	q.Patterns[1].S.Value = "isolatedA"
	q.Patterns[1].O.Value = "isolatedB"
	in := makeInput(t, q, 11, partition.Method{})
	if _, err := DPccp(context.Background(), in); !errors.Is(err, querygraph.ErrUnsupported) {
		t.Errorf("disconnected query: err = %v, want querygraph.ErrUnsupported", err)
	}
}
