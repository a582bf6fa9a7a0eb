package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	// 1000 samples: p99 is the 990th smallest, so ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
}

func iv(a, b int) interval {
	return interval{time.Duration(a), time.Duration(b)}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one inside", []interval{iv(10, 30)}, 80},
		{"disjoint", []interval{iv(10, 20), iv(50, 70)}, 70},
		{"overlapping count once", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the parent", []interval{iv(-50, 10), iv(90, 200)}, 80},
		{"outside", []interval{iv(-20, -10), iv(100, 120)}, 100},
		{"unsorted", []interval{iv(60, 70), iv(0, 10)}, 80},
		{"covers all", []interval{iv(0, 100)}, 0},
	} {
		if got := selfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEstimateSelf(t *testing.T) {
	if got := estimateSelf(3.5, 1.0, 0.5); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("estimateSelf(3.5; 1, 0.5) = %v, want 2", got)
	}
	if got := estimateSelf(1.0, 0.7, 0.6); math.Abs(got+0.3) > 1e-12 {
		t.Errorf("parts measured slower than the whole must come out negative, got %v", got)
	}
}
