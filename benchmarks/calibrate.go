package main

import (
	"fmt"
	"math"
	"sort"
)

// quartileSpread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4): the rule the benchmark is accepted
// by, so calibration applies the same one.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = b is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCalibration runs two interleaved sets (A B A B ...) of n full
// end-to-end runs of this same binary on each given workload, seeds
// seed..seed+n-1, and prints
// per workload and metric both medians, their gap, both interquartile
// spreads and the bound. It reports false if any gap exceeds its bound,
// or any spread but setup_s's does.
func runCalibration(run []*workload, dir string, n int, seed int64, seconds int) (bool, error) {
	type key struct{ set, w, m int }
	values := make(map[key][]float64)
	rc := defaultRun(dir, seconds)
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for wi, w := range run {
				res, err := runE2E(w, seed+int64(i), rc)
				if err != nil {
					return false, err
				}
				if res.checkErr != nil {
					return false, res.checkErr
				}
				fmt.Printf("# run %d%c %-10s", i, 'A'+set, w.name)
				for mi, d := range endToEnd {
					values[key{set, wi, mi}] = append(values[key{set, wi, mi}], res.metrics[d.name])
					fmt.Printf(" %s=%.4g", d.name, res.metrics[d.name])
				}
				fmt.Println()
			}
		}
	}
	ok := true
	fmt.Printf("\n| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	for wi, w := range run {
		for mi, d := range endToEnd {
			a, b := values[key{0, wi, mi}], values[key{1, wi, mi}]
			gap := worsening(d, median(a), median(b))
			sa, sb := quartileSpread(a), quartileSpread(b)
			note := ""
			switch {
			case math.Abs(gap) > d.bound:
				note, ok = "GAP OVER BOUND", false
			case d.name != "setup_s" && math.Max(sa, sb) > d.bound:
				note, ok = "SPREAD OVER BOUND", false
			case d.name != "setup_s" && math.Max(sa, sb) > d.bound/3:
				note = "spread over bound/3"
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, d.name, d.unit, median(a), median(b), 100*gap, 100*sa, 100*sb, 100*d.bound, note)
		}
	}
	return ok, nil
}
