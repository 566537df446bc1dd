package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload. Positive change
// means the new side is worse, as a share of the old median.
//
//   - unresolved: either side's interquartile spread is wider than the
//     bound, so the bound cannot be checked — unless every new run reads
//     better than every old run (better), or every new run reads worse and
//     the medians differ by more than the bound (worse);
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the new median is better by more than the old side's spread;
//   - same: otherwise.
func judge(m metricSpec, old, new []float64) (verdict string, change float64) {
	_, oldMed, _ := quartiles(old)
	_, newMed, _ := quartiles(new)
	if oldMed != 0 {
		change = (newMed - oldMed) / oldMed
	}
	if m.Better == "higher" {
		change = -change
	}
	allBetter, allWorse := true, true
	for _, o := range old {
		for _, n := range new {
			d := n - o
			if m.Better == "higher" {
				d = -d
			}
			if d >= 0 {
				allBetter = false
			}
			if d <= 0 {
				allWorse = false
			}
		}
	}
	if spread(old) > m.Bound || spread(new) > m.Bound {
		switch {
		case allBetter:
			return verdictBetter, change
		case allWorse && change > m.Bound:
			return verdictWorse, change
		}
		return verdictUnresolved, change
	}
	switch {
	case change > m.Bound:
		return verdictWorse, change
	case change < 0 && -change > spread(old):
		return verdictBetter, change
	}
	return verdictSame, change
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &doc, nil
}

// runsOf collects one metric's value from every set of a document.
func (doc *document) runsOf(workload, name string) []float64 {
	var v []float64
	for _, set := range doc.Sets {
		if res := set[workload]; res != nil {
			if m, ok := res.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row is worse.
func compareFiles(out io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told q1/median/q3\tnew q1/median/q3\tchange\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			o, n := oldDoc.runsOf(wl.Name, m.Name), newDoc.runsOf(wl.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				return false, fmt.Errorf("%s/%s is missing from one document", wl.Name, m.Name)
			}
			verdict, change := judge(m, o, n)
			anyWorse = anyWorse || verdict == verdictWorse
			o1, o2, o3 := quartiles(o)
			n1, n2, n3 := quartiles(n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, o1, o2, o3, n1, n2, n3, 100*change, 100*m.Bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
