package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sparqlopt/internal/ntriples"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

// datasetSeed is the LUBM generator's seed. The dataset is the same for
// every run: --seed picks the constants and the schedule, not the data,
// so set-up cost and result sizes do not move with it.
const datasetSeed = 1

// dataset is the generated LUBM data: in memory for sampling, the
// oracle and the replay, and as the N-Triples file the systems under
// test load.
type dataset struct {
	Scale  int
	Path   string
	Digest string // sha256 of the file
	ds     *rdf.Dataset
}

// prepareDataset generates LUBM at the given scale and writes it to
// dir. The file is rewritten on every run (under a second at LUBM-40)
// rather than trusted from an earlier one, so a stale or truncated
// file can never be what a system under test loads.
func prepareDataset(dir string, scale int) (*dataset, error) {
	d := &dataset{Scale: scale,
		Path: filepath.Join(dir, fmt.Sprintf("lubm-%d.nt", scale)),
		ds:   lubm.Generate(lubm.Config{Universities: scale, Seed: datasetSeed}),
	}
	tmp, err := os.CreateTemp(dir, "lubm-*.nt.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(tmp, h), 1<<20)
	if err := ntriples.Write(bw, d.ds); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp.Name(), d.Path); err != nil {
		return nil, err
	}
	d.Digest = hex.EncodeToString(h.Sum(nil))
	return d, nil
}
