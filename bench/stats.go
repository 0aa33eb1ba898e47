package bench

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it may
// be reported as a tail: below that, one slow sample moves it.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and the number of samples ranked beyond it. xs is not modified; an empty
// xs yields 0, 0.
func Percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// TailSupported reports whether the p-th percentile of n samples has at
// least MinBeyond samples beyond it.
func TailSupported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n > 0 && n-rank >= MinBeyond
}

// median is the middle value (the mean of the two middle ones for an even
// count), the statistic the set-up trials report.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
