package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a latency tail: the value at the highest percentile that
// still has at least minBeyond samples above it, with the evidence.
type tailStat struct {
	Value  float64 `json:"value"`
	Pct    float64 `json:"pct"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	// Windows, when above 1, says Value is the median of that many
	// consecutive windows' tails, each over N samples.
	Windows int `json:"windows,omitempty"`
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail applies the tail rule: with n sorted samples, the highest
// percentile with at least minBeyond samples beyond it is the one at
// index n-1-minBeyond. With too few samples no percentile qualifies; the
// maximum is reported instead, with Beyond < minBeyond saying so.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 1 - minBeyond
	if k < 0 {
		return tailStat{Value: s[n-1], Pct: 100, N: n, Beyond: 0}
	}
	return tailStat{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n, Beyond: n - 1 - k}
}

// windowTail splits time-ordered samples into consecutive windows,
// applies the tail rule to each, and reports the median of the windows'
// tails: a short stall of the host then moves one window's tail, not the
// run's.
func windowTail(xs []float64, windows int) tailStat {
	if windows <= 1 || len(xs) < windows {
		return tail(xs)
	}
	size := len(xs) / windows
	var vals []float64
	var st tailStat
	for w := 0; w < windows; w++ {
		st = tail(xs[w*size : (w+1)*size])
		vals = append(vals, st.Value)
	}
	st.Value, st.Windows = median(vals), windows
	return st
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secAll converts durations to float seconds.
func secAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
