package main

import (
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(p/100*float64(len(xs)) + 0.999999999)
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// interval is a closed time range on the run's monotonic clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that child spans
// cover. Children may overlap each other and stick out of the parent;
// only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.start - b.start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// estimateSelf is the arithmetic behind core.self_s: the time a layer
// takes around its children, from totals measured in separate calls. It
// is an estimate and may come out negative when the parts were measured
// on slower calls than the whole; it is reported as measured.
func estimateSelf(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	return total
}
