package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict classifies one (workload, metric) pairing of two result sets.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // spread wider than the bound
)

// judge applies a metric's bound to two sets of values, base a and change
// b. The change is worse (better) when its median is worse (better) than
// the base's by more than the bound. When either side's run-to-run spread
// is wider than the bound the pairing is unresolved — unless every run of
// one side beats every run of the other, which no spread can explain away.
func judge(m metricSpec, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return same, 1
		}
		return unresolved, 0
	}
	ratio := mb / ma
	gain := 1 - ratio // share by which b is better, for "lower is better"
	if m.Better == higher {
		gain = ratio - 1
	}
	v := same
	switch {
	case gain < -m.Bound:
		v = worse
	case gain > m.Bound:
		v = better
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		bWins := sb[len(sb)-1] < sa[0]
		aWins := sa[len(sa)-1] < sb[0]
		if m.Better == higher {
			bWins, aWins = sb[0] > sa[len(sa)-1], sa[0] > sb[len(sb)-1]
		}
		switch {
		case bWins && v == better, aWins && v == worse:
		default:
			v = unresolved
		}
	}
	return v, ratio
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return set, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

// valuesOf collects, per workload and metric, the untraced runs' values and
// the set of results digests seen.
func valuesOf(set resultSet) (vals map[string]map[string][]float64, digests map[string]map[string]bool) {
	vals = map[string]map[string][]float64{}
	digests = map[string]map[string]bool{}
	for _, r := range set.Runs {
		w := r.Info.Workload
		if digests[w] == nil {
			digests[w] = map[string]bool{}
			vals[w] = map[string][]float64{}
		}
		digests[w][r.Info.Digest] = true
		if r.Info.Trace {
			continue
		}
		for name, mv := range r.Result.Metrics {
			vals[w][name] = append(vals[w][name], mv.Value)
		}
	}
	return vals, digests
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareFiles prints the verdict for every (workload, end-to-end metric)
// and exits non-zero when any is worse or a results digest moved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b resultSet
		if b, err = readSet(pathB); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
	return 2
}

func compareSets(a, b resultSet, out io.Writer) int {
	va, da := valuesOf(a)
	vb, db := valuesOf(b)
	bad := false
	fmt.Fprintf(out, "%-14s %-16s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "A sprd", "B sprd", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := va[wl.Name][m.Name], vb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-14s %-16s missing from one set\n", wl.Name, m.Name)
				bad = true
				continue
			}
			v, ratio := judge(m, xa, xb)
			bad = bad || v == worse
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %8.4f %7.2f%% %7.2f%% %6.1f%%  %s (n=%d,%d; %s is better; base A=%.6g %s)\n",
				wl.Name, m.Name, median(xa), median(xb), ratio, 100*spread(xa), 100*spread(xb), 100*m.Bound,
				v, len(xa), len(xb), m.Better, median(xa), m.Unit)
		}
		ka, kb := keys(da[wl.Name]), keys(db[wl.Name])
		if len(ka) != 1 || len(kb) != 1 || ka[0] != kb[0] {
			fmt.Fprintf(out, "%-14s results_digest MOVED: A %v, B %v\n", wl.Name, ka, kb)
			bad = true
		} else {
			fmt.Fprintf(out, "%-14s results_digest %s identical\n", wl.Name, ka[0])
		}
	}
	if bad {
		return 1
	}
	return 0
}
