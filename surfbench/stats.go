package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted ascending;
// +Inf entries stand for shed or errored arrivals and sort last). It refuses
// a percentile with fewer than minBeyond samples beyond it, and a percentile
// that lands on +Inf, which no JSON number can carry.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	v := sorted[rank-1]
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("p%g of %d samples is +Inf (shed or errored arrivals)", 100*q, n)
	}
	return v, nil
}

// tailQuantiles are the candidate tail percentiles, highest first. A
// workload's sample count is fixed by its design, so each workload always
// lands on the same one (see README.md).
var tailQuantiles = []float64{0.95, 0.90, 0.75}

// tail returns the highest candidate tail percentile of sorted that has
// minBeyond samples beyond it, and which percentile that was.
func tail(sorted []float64) (float64, float64, error) {
	var err error
	for _, q := range tailQuantiles {
		var v float64
		if v, err = percentile(sorted, q); err == nil {
			return v, q, nil
		}
	}
	return 0, 0, err
}

// printTail prints a latency distribution's median and tail. The tail is
// shown, not reported as a metric: on a shared 2-core machine its
// run-to-run spread exceeded what a regression bound can tolerate.
func printTail(what string, sorted []float64, p50 float64) {
	if v, q, err := tail(sorted); err == nil {
		fmt.Printf("%s: %d samples, p50 %.3f ms, p%g %.3f ms\n", what, len(sorted), p50, 100*q, v)
	}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle of xs (mean of the two middles for even counts); NaN
// for no samples. It serves the repeated set-up timings, where the
// minBeyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
