package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the seed the checked-in answers were made for.
const goldenSeed = 1

// goldenFile holds, for one seed and one dataset, every distinct
// request of every workload with the answer sparqlopt.Reference gave
// and the body length sparqld served. It is written by -write-golden.
type goldenFile struct {
	path       string
	Schema     int                  `json:"schema"`
	Seed       int64                `json:"seed"`
	Scale      int                  `json:"scale"`
	Triples    int                  `json:"triples"`
	FileDigest string               `json:"file_digest"`
	Workloads  map[string][]request `json:"workloads"`
}

// loadGolden reads the golden file; a missing file is not an error,
// the run then checks against sparqlopt.Reference at run time.
func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	g := &goldenFile{path: path}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// usable returns "" when the golden answers apply to this seed and
// dataset, else why they do not.
func (g *goldenFile) usable(d *dataset, seed int64) string {
	switch {
	case g == nil:
		return "no golden file"
	case g.Schema != schemaVersion:
		return fmt.Sprintf("golden file has schema %d, not %d", g.Schema, schemaVersion)
	case g.Seed != seed:
		return fmt.Sprintf("golden file is for seed %d", g.Seed)
	case g.FileDigest != d.Digest || g.Triples != d.ds.Len():
		return "golden file is for another dataset"
	}
	return ""
}

// bodyLen returns the golden body length of a request, 0 when the
// file records none.
func (g *goldenFile) bodyLen(workload, id string) int64 {
	for _, r := range g.Workloads[workload] {
		if r.ID == id {
			return r.BodyLen
		}
	}
	return 0
}

func writeGolden(path string, d *dataset, seed int64, byWorkload map[string][]request) error {
	g := goldenFile{Schema: schemaVersion, Seed: seed, Scale: d.Scale, Triples: d.ds.Len(),
		FileDigest: d.Digest, Workloads: byWorkload}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
