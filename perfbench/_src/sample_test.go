package main

import (
	"slices"
	"testing"
)

func TestOpBestKeepsEachOperationsBest(t *testing.T) {
	b := newOpBest(2, 4)
	for _, rep := range [][]int64{{5, 9, 3}, {7, 2, 4}, {6, 8, 1}} {
		if err := b.add(0, rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.add(1, []int64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{5, 2, 1}; !slices.Equal(b.best[0], want) {
		t.Fatalf("group 0 best %v, want %v", b.best[0], want)
	}
	// Group 0 sums to 8, group 1 to 30; f may sort its copy without
	// disturbing the kept times.
	got := b.mean(func(_ int, best []int64) float64 {
		slices.Sort(best)
		return float64(sum(best))
	})
	if got != 19 {
		t.Fatalf("mean %v, want 19", got)
	}
	if want := []int64{5, 2, 1}; !slices.Equal(b.best[0], want) {
		t.Fatalf("mean changed group 0 best to %v", b.best[0])
	}
}

func TestOpBestRejectsARepeatOfOtherWork(t *testing.T) {
	b := newOpBest(1, 4)
	if err := b.add(0, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.add(0, []int64{1, 2}); err == nil {
		t.Fatal("a repeat with fewer operations was accepted")
	}
}
