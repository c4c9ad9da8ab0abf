package partition

import (
	"testing"

	"sparqlopt/internal/rdf"
)

func TestMigrationAddCount(t *testing.T) {
	m := &Migration{Adds: [][]rdf.Triple{{{}, {}}, nil, {{}}}}
	if got := m.AddCount(); got != 3 {
		t.Fatalf("AddCount = %d, want 3", got)
	}
}

func TestCoversDetectsLoss(t *testing.T) {
	ds := chainDataset()
	p, err := HashSO{}.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Covers(ds) {
		t.Fatal("fresh placement does not cover its dataset")
	}
	// Drop one dataset triple from every node: coverage must fail.
	victim := ds.Triples[0]
	broken := &Placement{Nodes: p.Nodes, Triples: make([][]rdf.Triple, p.Nodes)}
	for n, ts := range p.Triples {
		for _, tr := range ts {
			if tr != victim {
				broken.Triples[n] = append(broken.Triples[n], tr)
			}
		}
	}
	if broken.Covers(ds) {
		t.Fatal("Covers missed a dropped triple")
	}
}

func TestAlignmentSnapshots(t *testing.T) {
	k1 := GroupKey{Pred: 1, Pos: PosS}
	k2 := GroupKey{Pred: 1, Pos: PosO}
	k3 := GroupKey{Pred: 2, Pos: PosS}
	// The nil snapshot is the valid empty alignment.
	var nilAl *Alignment
	if nilAl.Aligned(1, PosS) || nilAl.Len() != 0 || nilAl.Keys() != nil {
		t.Fatal("nil alignment is not empty")
	}
	a := nilAl.With(k2, k1)
	if !a.Aligned(1, PosS) || !a.Aligned(1, PosO) || a.Aligned(2, PosS) {
		t.Fatalf("membership wrong after With: %v", a.Keys())
	}
	// With returns a fresh snapshot; the parent is frozen.
	b := a.With(k3)
	if a.Aligned(2, PosS) {
		t.Fatal("With mutated its receiver")
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	// Keys come back in deterministic (Pred, Pos) order.
	keys := b.Keys()
	want := []GroupKey{k1, k2, k3}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", keys, want)
		}
	}
	// Re-adding an existing key is idempotent.
	if c := b.With(k1); c.Len() != 3 {
		t.Fatalf("duplicate With grew the snapshot to %d", c.Len())
	}
}

func TestAlignNodeMatchesScatterHash(t *testing.T) {
	// The alignment contract: AlignNode must equal the engine's scatter
	// hash (plain modulus). Pin the arithmetic, including large IDs.
	cases := []struct {
		key   rdf.TermID
		nodes int
		want  int
	}{{0, 4, 0}, {7, 4, 3}, {8, 4, 0}, {1<<31 + 5, 10, int((uint64(1)<<31 + 5) % 10)}}
	for _, c := range cases {
		if got := AlignNode(c.key, c.nodes); got != c.want {
			t.Errorf("AlignNode(%d, %d) = %d, want %d", c.key, c.nodes, got, c.want)
		}
	}
}

func TestPosString(t *testing.T) {
	if PosS.String() != "S" || PosO.String() != "O" {
		t.Fatalf("Pos strings: %q %q", PosS.String(), PosO.String())
	}
}
