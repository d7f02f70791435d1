package main

import "sort"

// median returns the median of xs (0 when xs is empty). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the sample at the highest rank that still has tailBeyond
// samples above it, and that rank as a percentile. With fewer than
// 10*(tailBeyond+1) samples that rank sits too close to the body of the
// distribution, so it returns the maximum and ok=false.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n < 10*(tailBeyond+1) {
		return s[n-1], 100, false
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
