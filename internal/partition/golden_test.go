package partition

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

var update = flag.Bool("update", false, "rewrite testdata/placement.txt")

// placementFile pins every method's placement of LUBM-1 at 4 and 10
// nodes: per node the fragment's length and an FNV-1a digest of its
// triples, in fragment order for the four per-triple methods and in
// sorted order for path-bmc (whose fragments are sets of overlapping
// elements), and per placement the replication factor. A change to
// combine, distribute or the order a method places triples in shows
// here.
const placementFile = "placement.txt"

// goldenPlacements renders the pinned table.
func goldenPlacements(t *testing.T) string {
	t.Helper()
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	var b strings.Builder
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop} {
		for _, nodes := range []int{4, 10} {
			p, err := m.Partition(ds, nodes)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s nodes=%d rf=%.6f\n", m.Name(), nodes, p.ReplicationFactor(ds.Len()))
			for n, frag := range p.Triples {
				if m == PathBMC {
					frag = slices.Clone(frag)
					slices.SortFunc(frag, rdf.Triple.Compare)
				}
				fmt.Fprintf(&b, "%s nodes=%d node=%d len=%d fnv=%016x\n", m.Name(), nodes, n, len(frag), digest(frag))
			}
		}
	}
	return b.String()
}

// digest is the FNV-1a hash of the triples' IDs in order.
func digest(ts []rdf.Triple) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.S))
		binary.LittleEndian.PutUint32(buf[4:], uint32(t.P))
		binary.LittleEndian.PutUint32(buf[8:], uint32(t.O))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenPlacements holds every method to the placement it made
// before: a run must reproduce the pinned table line for line. Run with
// -update to rewrite it.
func TestGoldenPlacements(t *testing.T) {
	path := filepath.Join("testdata", placementFile)
	got := goldenPlacements(t)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
}
