package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it. It sorts xs in
// place and returns 0 for an empty slice. Nearest rank returns a measured
// sample, never an interpolation between two.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[rankIndex(len(xs), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// weightedSample is one measurement that stands for w observations, such as
// a slot's decision time seen by each of the slot's requests.
type weightedSample struct {
	v, w int64
}

// weightedQuantile returns the smallest sample value whose cumulative weight
// reaches a q share of the total weight. It sorts xs in place.
func weightedQuantile(xs []weightedSample, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.SortFunc(xs, func(a, b weightedSample) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	var total int64
	for _, x := range xs {
		total += x.w
	}
	target := q * float64(total)
	var cum int64
	for _, x := range xs {
		cum += x.w
		if float64(cum) >= target {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// median returns the median of xs (the mean of the two middle values for an
// even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// bestPerGroup summarizes a per-round statistic of a run whose round i
// replays input group i mod k. For each group it keeps the best value over
// the group's repeats, since contention from other work on the host only
// ever adds time, and returns the mean over the groups. higher says whether
// larger values are better (rates) or smaller ones (latencies).
func bestPerGroup(vals []float64, k int, higher bool) float64 {
	best := make([]float64, 0, k)
	for i, v := range vals {
		g := i % k
		if g == len(best) {
			best = append(best, v)
		} else if (higher && v > best[g]) || (!higher && v < best[g]) {
			best[g] = v
		}
	}
	if len(best) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	return sum / float64(len(best))
}

// opBest keeps, for each input group, the best time of each of a round's
// operations over the group's repeats. Repeats of a group make the same
// decisions (their plan hashes or decision-log CRCs are checked), so
// operation i of one repeat is the same work as operation i of another,
// and other work on the host only ever adds to it. Keeping the minimum per
// operation filters a burst of contention that hits a few operations of
// every repeat, which a whole-round statistic such as a round's p90 keeps.
type opBest struct {
	best [][]int64
	seen []bool
}

// newOpBest allocates room for groups groups of up to capacity operations,
// so that a run's own buffers exist before the baseline heap reading.
func newOpBest(groups, capacity int) *opBest {
	return newOpBestIn(make([]int64, groups*capacity), groups, capacity)
}

// newOpBestIn is newOpBest with the times kept in buf, which holds at
// least groups·capacity values.
func newOpBestIn(buf []int64, groups, capacity int) *opBest {
	b := &opBest{best: make([][]int64, groups), seen: make([]bool, groups)}
	for g := range b.best {
		b.best[g] = buf[g*capacity : g*capacity : (g+1)*capacity]
	}
	return b
}

// add folds one repeat of group g into the group's best times. A repeat
// with another number of operations than the group's first is an error:
// it did not replay the same work.
func (b *opBest) add(g int, ns []int64) error {
	if !b.seen[g] {
		b.seen[g] = true
		b.best[g] = append(b.best[g][:0], ns...)
		return nil
	}
	if len(ns) != len(b.best[g]) {
		return fmt.Errorf("group %d repeat made %d operations, its first made %d", g, len(ns), len(b.best[g]))
	}
	for i, v := range ns {
		b.best[g][i] = min(b.best[g][i], v)
	}
	return nil
}

// mean returns the mean of f over the groups that ran. f gets a copy of
// group g's best times, which it may sort.
func (b *opBest) mean(f func(g int, best []int64) float64) float64 {
	sum, n := 0.0, 0
	for g, best := range b.best {
		if b.seen[g] {
			sum += f(g, slices.Clone(best))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sum returns the total of xs.
func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
