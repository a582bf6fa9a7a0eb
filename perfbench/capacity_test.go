package main

import (
	"testing"
	"time"
)

// phaseOf builds a saturation phase of one second in which the first
// tcpDone of tcpSent TCP arrivals and httpDone of httpSent HTTP arrivals
// complete before the schedule ends.
func phaseOf(tcpSent, tcpDone, httpSent, httpDone int) *phase {
	start := time.Unix(100, 0)
	p := &phase{dur: time.Second, start: start}
	add := func(tcp bool, sent, done int) {
		for i := range sent {
			a := arrival{tcp: tcp, done: start.Add(500 * time.Millisecond)}
			if i >= done {
				a.done = start.Add(3 * time.Second)
			}
			p.arrivals = append(p.arrivals, a)
		}
	}
	add(true, tcpSent, tcpDone)
	add(false, httpSent, httpDone)
	return p
}

func TestReadCapacity(t *testing.T) {
	// Both connections fall behind: each rate is what it completed in the
	// phase's second.
	got := readCapacity(phaseOf(9000, 6000, 5000, 3000))
	want := [2]connCapacity{{offered: 9000, done: 6000, rate: 6000, saturated: true}, {offered: 5000, done: 3000, rate: 3000, saturated: true}}
	if got != want {
		t.Fatalf("both behind: got %+v, want %+v", got, want)
	}
	// Only HTTP falls behind: TCP completed what it was offered, which is
	// the schedule's rate and not its capacity, and says so.
	got = readCapacity(phaseOf(5000, 4990, 5000, 3000))
	if got[0].saturated || !got[1].saturated {
		t.Fatalf("HTTP behind: got %+v, want only HTTP saturated", got)
	}
	// Skipped arrivals were offered but not completed: backlog.
	p := phaseOf(100, 100, 5000, 5000)
	for i := range p.arrivals[100:3100] {
		p.arrivals[100+i].skipped = true
	}
	if got := readCapacity(p); got[1].rate != 2000 || !got[1].saturated {
		t.Fatalf("skipped HTTP arrivals: got %+v, want rate 2000 saturated", got[1])
	}
}

func TestWriteCapacity(t *testing.T) {
	start := time.Unix(100, 0)
	p := &writePhase{dur: time.Second, start: start, scheduled: 1000}
	for i := range 600 {
		a := writeArrival{done: start.Add(500 * time.Millisecond)}
		if i >= 500 {
			a.done = start.Add(2 * time.Second) // acked after the phase
		}
		p.arrivals = append(p.arrivals, a)
	}
	if ops, sat := p.capacity(); ops != 500*writeBatch || !sat {
		t.Fatalf("got %d ops saturated=%v, want %d saturated", ops, sat, 500*writeBatch)
	}
	p.scheduled = 505
	if _, sat := p.capacity(); sat {
		t.Fatal("a service that acked all but 5 of 505 arrivals kept up")
	}
}
