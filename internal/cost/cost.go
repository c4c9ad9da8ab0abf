// Package cost implements the cost model of paper §II-E: the cost of a
// k-way join operator is the sum of an I/O, a network-transfer and a
// join-computation component (Eq. 4), with the per-algorithm formulas
// of Table I and the calibrated normalization factors of Table II. The
// cost of a plan is the maximal child cost plus the operator cost
// (Eq. 3), accounting for concurrent subquery execution.
package cost

// Params are the normalization factors of Table I and the cluster
// size n. The zero value is not useful; start from Default.
type Params struct {
	// Alpha scales the I/O cost C_io = α·Σ|SQ_i| (all algorithms).
	Alpha float64
	// BetaB scales the broadcast transfer cost
	// C_trans = β_B·(Σ|SQ_i| − max|SQ_i|)·n.
	BetaB float64
	// BetaR scales the repartition transfer cost C_trans = β_R·Σ|SQ_i|.
	BetaR float64
	// GammaL, GammaB, GammaR scale the join computation cost
	// C_join = γ_op·|⋈ SQ_i| for local, broadcast and repartition joins.
	GammaL, GammaB, GammaR float64
	// Nodes is the cluster size n.
	Nodes int
}

// Default holds the parameters of Table II with the paper's 10-node
// cluster: α=0.02, β_B=0.05, β_R=0.1, γ_L=0.004, γ_B=0.008, γ_R=0.005.
var Default = Params{
	Alpha:  0.02,
	BetaB:  0.05,
	BetaR:  0.1,
	GammaL: 0.004,
	GammaB: 0.008,
	GammaR: 0.005,
	Nodes:  10,
}

// Scan returns the cost of scanning the bindings of a single triple
// pattern: pure I/O.
func (p Params) Scan(card float64) float64 { return p.Alpha * card }

// Local returns the cost of a k-way local join over inputs with the
// given cardinalities producing out results: no transfer.
func (p Params) Local(inputs []float64, out float64) float64 {
	return p.LocalFromStats(sum(inputs), out)
}

// Broadcast returns the cost of a k-way broadcast join: the k−1
// smaller inputs are replicated to the n nodes holding the largest.
func (p Params) Broadcast(inputs []float64, out float64) float64 {
	return p.BroadcastFromStats(sum(inputs), max(inputs), out)
}

// Repartition returns the cost of a k-way repartition join: every
// input is reshuffled on the shared join variable.
func (p Params) Repartition(inputs []float64, out float64) float64 {
	return p.RepartitionFromStats(sum(inputs), out)
}

// The FromStats variants compute the same formulas from the
// precomputed sum (and, for broadcast, maximum) of the input
// cardinalities. The plan enumerator's hot path uses them to cost
// candidate joins without materializing an input slice.

// LocalFromStats is Local given Σ|SQ_i|.
func (p Params) LocalFromStats(sumIn, out float64) float64 {
	return p.Alpha*sumIn + p.GammaL*out
}

// BroadcastFromStats is Broadcast given Σ|SQ_i| and max|SQ_i|.
func (p Params) BroadcastFromStats(sumIn, maxIn, out float64) float64 {
	return p.Alpha*sumIn + p.BetaB*(sumIn-maxIn)*float64(p.Nodes) + p.GammaB*out
}

// RepartitionFromStats is Repartition given Σ|SQ_i|.
func (p Params) RepartitionFromStats(sumIn, out float64) float64 {
	return p.Alpha*sumIn + p.BetaR*sumIn + p.GammaR*out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func max(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
