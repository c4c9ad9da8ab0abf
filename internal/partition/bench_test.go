package partition

import (
	"testing"

	"sparqlopt/internal/workload/lubm"
)

// BenchmarkPartition times each method's Partition over LUBM-10 on ten
// nodes, the set-up step Open takes after the load. `make bench-smoke`
// runs it once.
func BenchmarkPartition(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Partition(ds, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
