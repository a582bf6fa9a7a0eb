package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPoissonDeterministicPerSeed(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 2000, time.Second)
	b := poisson(rand.New(rand.NewSource(7)), 2000, time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	c := poisson(rand.New(rand.NewSource(8)), 2000, time.Second)
	if slices.Equal(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
}

func TestPoissonShape(t *testing.T) {
	const rate, d = 5000.0, 4 * time.Second
	s := poisson(rand.New(rand.NewSource(1)), rate, d)
	want := rate * d.Seconds()
	// The count of a Poisson process has standard deviation sqrt(mean).
	if n := float64(len(s)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want about %v", n, want)
	}
	for i, at := range s {
		if at < 0 || at >= d {
			t.Fatalf("arrival %d at %v, outside [0, %v)", i, at, d)
		}
		if i > 0 && at < s[i-1] {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, at, i-1, s[i-1])
		}
	}
	// Exponential gaps: the share of gaps above the mean is 1/e.
	mean := time.Duration(float64(time.Second) / rate)
	long := 0
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] > mean {
			long++
		}
	}
	if share := float64(long) / float64(len(s)-1); math.Abs(share-1/math.E) > 0.02 {
		t.Fatalf("%.3f of the gaps exceed the mean, want about %.3f", share, 1/math.E)
	}
}

func TestPoissonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if s := poisson(rng, 0, time.Second); len(s) != 0 {
		t.Fatalf("rate 0 gave %d arrivals", len(s))
	}
	if s := poisson(rng, 100, 0); len(s) != 0 {
		t.Fatalf("zero duration gave %d arrivals", len(s))
	}
}

func TestSleepUntil(t *testing.T) {
	due := time.Now().Add(3 * time.Millisecond)
	sleepUntil(due)
	if now := time.Now(); now.Before(due) {
		t.Fatalf("woke %v early", due.Sub(now))
	}
	sleepUntil(time.Now().Add(-time.Second)) // a past time returns at once
}
