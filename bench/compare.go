package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles are Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which the benchmark's acceptance uses for the
// run-to-run spread. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		m := n + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// iqr is the interquartile distance; 0 for fewer than two runs, where
// it cannot be known.
func iqr(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	return q3 - q1
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if m := median(values); m != 0 {
		return iqr(values) / m
	}
	return 0
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(max(len(values), 1))
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one workload x end-to-end metric row. delta and the
// spreads are shares of the median, or absolute differences for a
// metric whose bound is absolute.
type comparison struct {
	metric           string
	a, b             float64 // medians
	delta            float64
	bound            float64
	spreadA, spreadB float64
	verdict          verdict
}

// judge compares the medians of two sets of runs of one metric. B is
// worse when it moved in the bad direction by more than the bound; when
// either side's own run-to-run spread exceeds the bound the move cannot
// be told from noise, and the row is unresolved rather than worse. A
// bound of 0 (fail_share) tolerates nothing: the runs are pooled by
// their mean, which a single failing run moves and a median would hide,
// and any rise is worse.
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{metric: def.name, a: median(a), b: median(b), bound: def.bound,
		spreadA: spread(a), spreadB: spread(b), verdict: verdictOK}
	if def.bound == 0 {
		c.a, c.b = mean(a), mean(b)
	}
	switch {
	case def.absolute():
		c.delta = c.b - c.a
		c.spreadA, c.spreadB = iqr(a), iqr(b)
	case c.a != 0:
		c.delta = (c.b - c.a) / c.a
	}
	worse := c.delta
	if def.better == "higher" {
		worse = -c.delta
	}
	if worse > def.bound {
		c.verdict = verdictWorse
		if def.bound > 0 && (c.spreadA > def.bound || c.spreadB > def.bound) {
			c.verdict = verdictUnresolved
		}
	}
	return c
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &doc, nil
}

// samples groups a file's untraced runs: workload -> metric -> values.
func samples(doc *resultFile) map[string]map[string][]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range doc.Runs {
		if r.Trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.Metrics {
			vals[r.Workload][m.Name] = append(vals[r.Workload][m.Name], m.Value)
		}
	}
	return vals
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the delta, the bound and a verdict. It returns non-zero on any
// "worse" — fail_share's bound is 0, so any rise of it is one — and when
// a workload or metric that a holds is missing from b.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareDocs(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compareDocs(a, b *resultFile) int {
	va, vb := samples(a), samples(b)
	fmt.Printf("a: commit %s, %d runs   b: commit %s, %d runs\n", a.Header.Commit, len(a.Runs), b.Header.Commit, len(b.Runs))
	fmt.Printf("%-14s %-20s %12s %12s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "delta", "bound", "spread a", "spread b", "verdict")
	code := 0
	for _, w := range workloads {
		if va[w.name] == nil && vb[w.name] == nil {
			continue
		}
		for _, def := range endToEnd {
			xa, xb := va[w.name][def.name], vb[w.name][def.name]
			if len(xa) == 0 || len(xb) == 0 {
				// Nothing to compare against is not a pass.
				fmt.Printf("%-14s %-20s  %d runs in a, %d in b: missing, counted as %s\n", w.name, def.name, len(xa), len(xb), verdictWorse)
				code = 1
				continue
			}
			c := judge(def, xa, xb)
			scale, sign := 100.0, "%"
			if def.absolute() {
				scale, sign = 1, " "
			}
			fmt.Printf("%-14s %-20s %12.5g %12.5g %+7.3g%s %6.3g%s %8.3g%s %8.3g%s  %s\n",
				w.name, def.name, c.a, c.b, scale*c.delta, sign, scale*c.bound, sign, scale*c.spreadA, sign, scale*c.spreadB, sign, c.verdict)
			if c.verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
