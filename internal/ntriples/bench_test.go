package ntriples

import (
	"bytes"
	"testing"

	"sparqlopt/internal/workload/lubm"
)

// BenchmarkReadNTriples times Read over LUBM-10, serialized once into
// memory by Write: the load the spine's servers make at start-up
// (parse, intern, commit). `make bench-smoke` runs it once.
func BenchmarkReadNTriples(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Read(bytes.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != ds.Len() {
			b.Fatalf("read %d triples, want %d", got.Len(), ds.Len())
		}
	}
}
