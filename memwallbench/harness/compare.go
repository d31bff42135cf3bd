package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"memwall/memwallbench/bench"
)

// compare prints, for each workload and metric, the median and
// quartiles of two directories of saved results. It refuses to compare
// unless every result in both was measured on the same host and build.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: harness compare DIR_A DIR_B")
	}
	sets := make([]map[string]map[string][]float64, 2)
	var first *record
	for i, dir := range args {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("%s holds no results", dir)
		}
		sets[i] = map[string]map[string][]float64{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			var r record
			if err := json.Unmarshal(b, &r); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			if first == nil {
				first = &r
			} else if err := first.Provenance.SameHost(r.Provenance); err != nil {
				return fmt.Errorf("refusing to compare %s: %w", f, err)
			}
			group := r.Workload
			if r.Trace {
				group += " (traced)"
			}
			if sets[i][group] == nil {
				sets[i][group] = map[string][]float64{}
			}
			for name, v := range r.Result.Metrics {
				sets[i][group][name+" "+v.Unit] = append(sets[i][group][name+" "+v.Unit], v.Value)
			}
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "workload\tmetric unit\tn A\tmedian A\t[q1, q3] A\tn B\tmedian B\t[q1, q3] B\tB/A\t")
	var groups []string
	for g := range sets[0] {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		var names []string
		for n := range sets[0][g] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a, b := sets[0][g][n], sets[1][g][n]
			if len(b) == 0 {
				continue
			}
			qa1, qa3, _ := bench.Quartiles(a)
			qb1, qb3, _ := bench.Quartiles(b)
			ma, mb := bench.Median(a), bench.Median(b)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f", mb/ma)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4g\t[%.4g, %.4g]\t%d\t%.4g\t[%.4g, %.4g]\t%s\t\n",
				g, n, len(a), ma, qa1, qa3, len(b), mb, qb1, qb3, ratio)
		}
	}
	return w.Flush()
}
