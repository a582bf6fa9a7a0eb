package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	// writeBatch is the ops per arrival: one Enqueue of writeBatch toggles
	// followed by one Flush.
	writeBatch = 16
	// checkpointEvery sets serve.Options.CheckpointEvery for the durable
	// service, small enough that every write stage completes several
	// checkpoint cycles.
	checkpointEvery = 10000
	// recoveryTail is the number of ops logged after the last checkpoint
	// before the crash, so every recovery replays the same WAL suffix.
	recoveryTail = 8192
	// maxInFlight bounds the flushes waiting for their ack; an arrival
	// beyond it is refused and counts as failed.
	maxInFlight = 1 << 14
	// recoveries is how many times the crashed store is opened; recover_s
	// is their median.
	recoveries = 11
)

// durableOptions is the configuration of every durable service here.
func durableOptions(dir string, workers int) serve.Options {
	return serve.Options{Dir: dir, Fsync: wal.SyncEveryBatch, CheckpointEvery: checkpointEvery, Workers: workers}
}

// writeLoad drives a durable service in-process with open-loop batches.
type writeLoad struct {
	svc  *serve.Service
	tr   *tracer
	ops  []workload.Op // the toggle stream, consumed in order and replayed when exhausted
	next int

	// log holds, in order, every op the service accepted; the expected
	// final graph replays exactly those.
	log []workload.Op
}

// writeArrival is one scheduled Enqueue+Flush.
type writeArrival struct {
	at      time.Duration
	due     time.Time
	start   time.Duration // tracer clock at Enqueue
	end     time.Duration // tracer clock at Flush return
	enqueue time.Duration // time inside Enqueue
	done    time.Time
	failed  bool
}

// writePhase is one open-loop phase of the write stage.
type writePhase struct {
	dur       time.Duration
	scheduled int // arrivals drawn; with cut, those beyond the phase's end are not in arrivals
	arrivals  []writeArrival
	lag       []float64 // µs
	start     time.Time // when the schedule began
	from, to  time.Duration
	depth     []float64 // sampled queue depth, traced runs only
}

// run sends each arrival at its due time: the generator itself calls
// Enqueue, so ops reach the queue in stream order, and hands the Flush
// to a goroutine so many acks are in flight at once. A full queue blocks
// Enqueue and so the generator; with cut, arrivals it could not send
// before the phase ended are dropped from the phase rather than sent
// late, which keeps a saturation phase to its length.
func (w *writeLoad) run(rng *rand.Rand, rate float64, dur time.Duration, cut bool) *writePhase {
	offs := poisson(rng, rate, dur)
	p := &writePhase{dur: dur, scheduled: len(offs), arrivals: make([]writeArrival, len(offs)), lag: make([]float64, 0, len(offs))}
	p.from = w.tr.now()
	stopDepth := w.sampleDepth(p)
	p.start = time.Now().Add(2 * time.Millisecond)
	end := p.start.Add(dur)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), dur+opTimeout+time.Second)
	defer cancel()
	for i, at := range offs {
		a := &p.arrivals[i]
		a.at, a.due = at, p.start.Add(at)
		sleepUntil(a.due)
		if cut && time.Now().After(end) {
			p.arrivals = p.arrivals[:i]
			break
		}
		p.lag = append(p.lag, us(time.Since(a.due)))
		batch := w.take()
		select {
		case sem <- struct{}{}:
		default:
			a.failed, a.done = true, time.Now()
			continue
		}
		a.start = w.tr.now()
		err := w.svc.Enqueue(ctx, batch...)
		a.enqueue = w.tr.now() - a.start
		if err != nil {
			<-sem
			a.failed, a.done = true, time.Now()
			continue
		}
		w.log = append(w.log, batch...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := w.svc.Flush(ctx)
			a.done, a.end = time.Now(), w.tr.now()
			a.failed = err != nil
			w.tr.add(w.tr.newID(), -1, "workload.ack", a.start)
		}()
	}
	wg.Wait()
	stopDepth()
	p.to = w.tr.now()
	return p
}

// take returns the next writeBatch ops of the stream.
func (w *writeLoad) take() []workload.Op {
	if w.next+writeBatch > len(w.ops) {
		w.next = 0
	}
	batch := w.ops[w.next : w.next+writeBatch]
	w.next += writeBatch
	return batch
}

// sampleDepth samples the service's queue depth every millisecond while
// tracing; the returned func stops the sampler and waits for it.
func (w *writeLoad) sampleDepth(p *writePhase) func() {
	if !w.tr.on {
		return func() {}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.depth = append(p.depth, float64(w.svc.Stats().QueueDepth))
			}
		}
	}()
	return func() { close(stop); <-done }
}

// capacity counts the ops acked before the phase's schedule ended, and
// reports whether the service fell behind the schedule: it acked
// markedly fewer arrivals than were scheduled, so the count is its
// service rate rather than the offered one.
func (p *writePhase) capacity() (ops int, saturated bool) {
	end := p.start.Add(p.dur)
	n := 0
	for i := range p.arrivals {
		if a := &p.arrivals[i]; !a.failed && !a.done.After(end) {
			n++
		}
	}
	return n * writeBatch, p.scheduled-n > max(32, p.scheduled/50)
}

// ackResult summarises the acks of a phase.
type ackResult struct {
	ack       []float64 // ms from send time to Flush return; failed acks at opTimeout
	attempted int
	failed    int
}

func summariseAcks(p *writePhase) ackResult {
	var r ackResult
	for i := range p.arrivals {
		a := &p.arrivals[i]
		r.attempted++
		lat := float64(a.done.Sub(a.due)) / float64(time.Millisecond)
		if a.failed {
			r.failed++
			lat = float64(opTimeout) / float64(time.Millisecond)
		}
		r.ack = append(r.ack, lat)
	}
	return r
}

// ackWaits is, per ack of the phase, the ack span minus the engine
// applies it covers: time an ack spends queued, logged, synced and woken
// rather than applied. Applies come from the single writer, so their
// spans never overlap and a binary search finds those inside an ack.
func ackWaits(p *writePhase, applies []interval) []float64 {
	out := make([]float64, 0, len(p.arrivals))
	for i := range p.arrivals {
		a := &p.arrivals[i]
		if a.failed || a.start == 0 {
			continue
		}
		span := interval{a.start, a.end}
		lo := sort.Search(len(applies), func(j int) bool { return applies[j].end > span.start })
		hi := lo
		for hi < len(applies) && applies[hi].start < span.end {
			hi++
		}
		out = append(out, us(selfTime(span, applies[lo:hi])))
	}
	return out
}

// finish ends the write stage: it checkpoints, logs a fixed tail, takes
// the binary snapshot, crashes the service, drops it as a dead process
// would, and opens the store again (several times), then checks the
// recovered state. peakOf marks the parts of it for the heap peak: up to
// the crash, the recovery, and the checks, which are the benchmark's own
// work and do not count. It returns the median open time in seconds and
// the quality ratio: |S| after the stream over |S| of a fresh LP solve of
// the final graph.
func (w *writeLoad) finish(st *stack, workers int, peakOf func(part string, counts bool)) (recoverS float64, quality float64, err error) {
	dir, g0 := st.dir, st.or
	defer peakOf("final checks", false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.svc.Flush(ctx); err != nil {
		return 0, 0, fmt.Errorf("flush before crash: %w", err)
	}
	// A checkpoint now makes the WAL suffix exactly the tail below.
	if err := w.svc.Barrier(ctx, func(cp serve.Checkpointer) error {
		_, err := cp.Checkpoint(io.Discard)
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("checkpoint before tail: %w", err)
	}
	for range recoveryTail / writeBatch {
		batch := w.take()
		if err := w.svc.Enqueue(ctx, batch...); err != nil {
			return 0, 0, fmt.Errorf("tail enqueue: %w", err)
		}
		w.log = append(w.log, batch...)
	}
	if err := w.svc.Flush(ctx); err != nil {
		return 0, 0, fmt.Errorf("tail flush: %w", err)
	}
	if s := w.svc.Stats(); s.Applied != s.Enqueued {
		return 0, 0, fmt.Errorf("%d ops enqueued but %d applied", s.Enqueued, s.Applied)
	}
	before := snapshotBytes(w.svc.Snapshot())
	w.svc.Crash()
	w.svc, st.dur = nil, nil
	runtime.GC()
	peakOf("checkpoint, tail and crash", false)

	var opens []float64
	var svc *serve.Service
	for i := range recoveries {
		c := startHostClock()
		svc, err = serve.Open(dir, durableOptions(dir, workers))
		if err != nil {
			return 0, 0, fmt.Errorf("open after crash: %w", err)
		}
		opens = append(opens, c.seconds())
		if after := snapshotBytes(svc.Snapshot()); !bytes.Equal(before, after) {
			svc.Close()
			return 0, 0, errors.New("recovered binary snapshot differs from the one taken before the crash")
		}
		if i < recoveries-1 {
			svc.Crash()
		}
	}
	defer svc.Close()
	peakOf("recovery", false)

	// The final state: the engine as it stands behind the recovered
	// service, captured at a batch boundary and loaded into a fresh engine.
	var img bytes.Buffer
	if err := svc.Barrier(ctx, func(cp serve.Checkpointer) error {
		_, err := cp.Checkpoint(&img)
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("capture final state: %w", err)
	}
	eng, err := dynamic.LoadCheckpoint(&img, workers)
	if err != nil {
		return 0, 0, err
	}
	if err := eng.Verify(); err != nil {
		return 0, 0, fmt.Errorf("final engine: %w", err)
	}
	if err := w.checkGraph(g0, eng.Graph()); err != nil {
		return 0, 0, err
	}
	final := eng.Graph().Snapshot()
	fresh, err := core.Find(final, core.Options{K: k, Algorithm: core.LP, Workers: workers})
	if err != nil {
		return 0, 0, err
	}
	if err := core.Verify(final, k, eng.Result()); err != nil {
		return 0, 0, fmt.Errorf("maintained set: %w", err)
	}
	return median(opens), float64(svc.Size()) / float64(fresh.Size()), svc.Close()
}

// checkGraph replays every accepted op, in stream order, on g0's edge
// set and compares each touched edge, and the edge count, with the
// final graph: every acked op was applied, and nothing else was.
func (w *writeLoad) checkGraph(g0 *graph.Graph, final *graph.Dynamic) error {
	present := map[[2]int32]bool{}
	for _, op := range w.log {
		e := [2]int32{min(op.U, op.V), max(op.U, op.V)}
		present[e] = op.Insert
	}
	m := g0.M()
	for e, in := range present {
		was := g0.HasEdge(e[0], e[1])
		switch {
		case in && !was:
			m++
		case !in && was:
			m--
		}
		if final.HasEdge(e[0], e[1]) != in {
			return fmt.Errorf("edge (%d,%d): present=%v after the stream, want %v", e[0], e[1], !in, in)
		}
	}
	if final.M() != m {
		return fmt.Errorf("final graph has %d edges, want %d", final.M(), m)
	}
	return nil
}

// snapshotBytes is the binary snapshot frame a client would fetch.
func snapshotBytes(s *dynamic.Snapshot) []byte {
	return wire.AppendSnapshotFrame(nil, s.Version(), s.K(), s.N(), s.M(), s.Size(), s.Cliques(), true)
}
