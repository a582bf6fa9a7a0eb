package main

import (
	"math/rand"
	"syscall"
	"time"
)

// poisson returns the send offsets of a Poisson arrival process with the
// given rate (arrivals per second) over [0, d), drawn from rng. The same
// rng state gives the same schedule, so schedules are deterministic per
// seed.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	if rate <= 0 || d <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// sleepUntil blocks the calling goroutine until t. It sleeps in the
// kernel rather than on the Go timer: on an otherwise idle process the
// runtime's timer wakes up to a millisecond late, far coarser than the
// gaps of a Poisson schedule at thousands of arrivals per second.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}
