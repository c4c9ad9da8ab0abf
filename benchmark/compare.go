package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares medians a (base) and b under a metric's bound: b is
// worse when it moved in the bad direction by more than bound × a. When
// either side's own run-to-run spread is wider than the bound the pair
// is unresolved: the runs cannot tell a regression from noise.
func verdict(d metricDef, a, b summary) (string, float64) {
	worseBy := 0.0
	if a.Median != 0 {
		worseBy = (b.Median - a.Median) / math.Abs(a.Median)
		if d.Better == higher {
			worseBy = -worseBy
		}
	}
	switch {
	case math.Max(a.Spread, b.Spread) > d.Bound:
		return verdictUnresolved, worseBy
	case worseBy > d.Bound:
		return verdictWorse, worseBy
	}
	return verdictOK, worseBy
}

// exactCounts must repeat exactly between two runs of one commit.
var exactCounts = []string{"opt.enumerated_joins", "engine.scanned_triples", "engine.joined_rows",
	"engine.shuffled_bytes", "engine.result_rows"}

// toMicros converts a time metric to microseconds; ok is false for
// metrics that are not plain times.
func toMicros(d metricDef, v float64) (float64, bool) {
	switch d.Unit {
	case "us":
		return v, true
	case "ms":
		return v * 1e3, true
	case "s":
		return v * 1e6, true
	}
	return 0, false
}

func loadReport(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Meta.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: report schema %d, this benchmark writes %d", path, r.Meta.Schema, schemaVersion)
	}
	return &r, nil
}

// missingIn says which report lacks a workload or a metric.
func missingIn(inA, inB bool) string {
	switch {
	case !inA && !inB:
		return "missing in both"
	case !inA:
		return "missing in a"
	}
	return "missing in b"
}

// compareReports prints, for base report a and report b, one row per
// (workload, end-to-end metric) with a verdict, then per workload in
// both the per-layer time deltas by size and the counts that must
// repeat. It reports whether any pair came out worse.
func compareReports(w io.Writer, aPath, bPath string) (anyWorse bool, err error) {
	a, err := loadReport(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadReport(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base a: %s  commit %s seed %d\n     b: %s  commit %s seed %d\n", aPath, a.Meta.Commit, a.Meta.Seed, bPath, b.Meta.Commit, b.Meta.Seed)
	if a.Meta.FileDigest != b.Meta.FileDigest || a.Meta.WindowS != b.Meta.WindowS || a.Meta.CPUModel != b.Meta.CPUModel || a.Meta.NumCPU != b.Meta.NumCPU {
		fmt.Fprintln(w, "warning: the reports differ in dataset, window length or machine; their numbers are not comparable")
	}
	// A workload or a metric one report lacks cannot be judged: its pairs
	// are unresolved, never silently skipped or read as an improvement.
	aw, bw := map[string]workloadReport{}, map[string]workloadReport{}
	names := []string{}
	for _, x := range a.Workloads {
		aw[x.Name] = x
		names = append(names, x.Name)
	}
	for _, x := range b.Workloads {
		bw[x.Name] = x
		if _, ok := aw[x.Name]; !ok {
			names = append(names, x.Name)
		}
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "\n%-13s %-19s %12s %12s %9s %7s %8s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "spread a", "spread b", "verdict")
	for _, name := range names {
		for _, d := range endToEnd {
			sa, inA := aw[name].EndToEnd[d.Name]
			sb, inB := bw[name].EndToEnd[d.Name]
			if !inA || !inB {
				counts[verdictUnresolved]++
				fmt.Fprintf(w, "%-13s %-19s %s  %s\n", name, d.Name, missingIn(inA, inB), verdictUnresolved)
				continue
			}
			v, _ := verdict(d, sa, sb)
			counts[v]++
			ratio := math.NaN()
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			fmt.Fprintf(w, "%-13s %-19s %12.4f %12.4f %9.3f %6.0f%% %7.1f%% %7.1f%%  %s\n", name, d.Name,
				sa.Median, sb.Median, ratio, 100*d.Bound, 100*sa.Spread, 100*sb.Spread, v)
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d worse, %d unresolved (ratios are b over base a)\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])

	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		type row struct {
			name         string
			a, b, deltaU float64
		}
		var rows []row
		var missing []string
		for _, d := range perLayer {
			va, inA := wa.PerLayer[d.Name]
			vb, inB := wb.PerLayer[d.Name]
			if !inA || !inB {
				missing = append(missing, fmt.Sprintf("%s (%s)", d.Name, missingIn(inA, inB)))
				continue
			}
			ua, isTime := toMicros(d, va)
			ub, _ := toMicros(d, vb)
			if isTime && (ua != 0 || ub != 0) {
				rows = append(rows, row{d.Name, ua, ub, ub - ua})
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return math.Abs(rows[i].deltaU) > math.Abs(rows[j].deltaU) })
		fmt.Fprintf(w, "\n%s: per-layer times, largest change first (us)\n", wa.Name)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-30s %14.1f %14.1f %+14.1f\n", r.name, r.a, r.b, r.deltaU)
		}
		for _, name := range exactCounts {
			state := "repeats"
			if wa.PerLayer[name] != wb.PerLayer[name] {
				state = "DIFFERS"
			}
			fmt.Fprintf(w, "  %-30s %14.4f %14.4f  %s\n", name, wa.PerLayer[name], wb.PerLayer[name], state)
		}
		for _, m := range missing {
			fmt.Fprintf(w, "  not compared: %s\n", m)
		}
	}
	return counts[verdictWorse] > 0, nil
}
