package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/respcache"
)

// Open-loop rates. The latency metrics are taken at the nominal rates;
// the rate_max and CPU-cost metrics come from saturation phases offered
// far more than the stack takes, where each path completes work at its
// service rate: the highest offered rate it takes without its backlog
// growing. (A ladder of fixed rates with a latency limit per rung was
// tried first. On a 2-vCPU host its outcome flips between distant rungs
// from run to run, because one GC cycle or one checkpoint stall decides a
// short rung.)
// Every run checks that each nominal rate is at most kneeShare of the
// saturation throughput it measured, so the latencies are taken below the
// knee. On a 2-vCPU Xeon host the nominal rates use 0.02 (TCP) to 0.25
// (writes) of it, which leaves room for a host two to three times slower.
const (
	// The nominal read rates, arrivals/s on each connection.
	tcpNominal  = 3000.0
	httpNominal = 1000.0
	readNominal = tcpNominal + httpNominal
	// Each read connection is saturated in a phase of its own, offered
	// several times what it takes while the other one carries its nominal
	// share, with at most satBacklog unanswered reads: saturating both at
	// once measures mostly how the two share the CPUs, as the pipelined
	// TCP path then starves the serial HTTP one.
	tcpSaturate  = 160000.0
	httpSaturate = 20000.0
	satBacklog   = 1024

	writeNominal  = 500.0 // arrivals/s, writeBatch ops each
	writeSaturate = 9600.0
	kneeShare     = 0.5

	// A nominal phase whose send-lag p99 is above its stage's limit did
	// not offer its schedule, and the run is invalid. A generator that
	// cannot keep up falls behind without bound, by hundreds of
	// milliseconds within a phase. One that keeps up runs late only while
	// a GC cycle or the host holds the process back: on a 2-vCPU host its
	// read lag p99 is 0.2–3 ms, and 10–18 ms through a stretch in which
	// the hypervisor steals the CPUs. The read limit, 100 mean
	// inter-arrival gaps at the nominal rate, lies between the two; such a
	// run's latencies are inflated, not hidden, as they are timed from the
	// schedule. The writes allow for the writer's checkpoint captures (the
	// index canonicalization takes both CPUs of a 2-vCPU host for tens of
	// milliseconds) stalling the generator, which itself calls Enqueue.
	readLagLimit  = time.Duration(100 * float64(time.Second) / readNominal)
	writeLagLimit = 100 * time.Millisecond
)

// stageTotals counts the ops a stage attempted and how many failed.
type stageTotals struct{ attempted, failed int }

// solveStage times further LP solves and index builds of the primary
// graph, at least one and more while a quarter of the budget lasts (the
// set-ups already timed one each, and the single-worker check takes
// about as long again), checks the result, and reports the static
// metrics.
func solveStage(rep *report, tr *tracer, st *stack, finds, indexes []float64, budget time.Duration, workers int) int {
	want := st.cliques
	start := time.Now()
	for n := 0; n < 1 || time.Since(start) < budget/4; n++ {
		t0 := tr.now()
		res, secs, err := findLP(st.g, workers)
		tr.add(tr.newID(), -1, "core.find", t0)
		if err != nil {
			rep.fail("LP solve: %v", err)
			break
		}
		if !slices.EqualFunc(res.Cliques, want, slices.Equal) {
			rep.fail("LP solve %d returned a different set (|S|=%d, want %d)", n, res.Size(), len(want))
		}
		finds = append(finds, secs)
		t0 = tr.now()
		c := startHostClock()
		if _, err := dynamic.NewWorkers(st.g, k, want, workers); err != nil {
			rep.fail("index build: %v", err)
		}
		indexes = append(indexes, c.seconds())
		tr.add(tr.newID(), -1, "dynamic.index", t0)
	}
	if res, _, err := findLP(st.g, 1); err != nil || !slices.EqualFunc(res.Cliques, want, slices.Equal) {
		rep.fail("LP solve with 1 worker differs from %d workers", workers)
	}
	if err := core.Verify(st.g, k, want); err != nil {
		rep.fail("LP result: %v", err)
	}
	if !core.IsMaximal(st.g, k, want) {
		rep.fail("LP result is not maximal")
	}
	solveS := median(slices.Clone(finds))
	rep.add(false, "solve_s", solveS, "s", len(finds), "median LP Find, unstolen seconds")
	rep.add(false, "index_s", median(slices.Clone(indexes)), "s", len(indexes), "median Algorithm-5 build, unstolen seconds")
	if !tr.on {
		return len(want)
	}
	// The parts of a solve, timed through the same public calls Find
	// makes: the listing order and orientation, then the score count.
	var orders, counts []float64
	var total uint64
	for range 2 {
		t0 := tr.now()
		d := graph.Orient(st.g, graph.ListingOrdering(st.g))
		orders = append(orders, (tr.now() - t0).Seconds())
		tr.add(tr.newID(), -1, "graph.order", t0)
		t0 = tr.now()
		total, _ = kclique.Count(d, k, workers)
		counts = append(counts, (tr.now() - t0).Seconds())
		tr.add(tr.newID(), -1, "kclique.count", t0)
	}
	order, count := median(orders), median(counts)
	rep.add(true, "graph.order_s", order, "s", len(orders), "ListingOrdering + Orient")
	rep.add(true, "kclique.count_s", count, "s", len(counts), "score pass")
	rep.add(true, "kclique.cliques_total", float64(total), "count", 1, "k-cliques counted")
	rep.add(true, "core.self_s", estimateSelf(solveS, order, count), "s", len(finds), "estimate: solve_s - order - count")
	rep.add(true, "dynamic.candidates", float64(st.candidates), "count", 1, "candidates of the index build")
	rep.add(true, "traced.solve_s", solveS, "s", len(finds), "solve_s with tracing on")
	return len(want)
}

// dropStatic releases the static stage's graph and result when the
// serving stages do not use them, so those stages run on the same heap
// in every workload.
func (st *stack) dropStatic() {
	if st.g != st.or {
		st.g, st.cliques = nil, nil
	}
}

// readStage runs the open-loop read traffic: a warm-up, the nominal
// phase, then the saturation phase.
func readStage(rep *report, tr *tracer, st *stack, rng *rand.Rand, budget time.Duration) (stageTotals, error) {
	var tot stageTotals
	l, err := newReadLoad(st.srv, tr, toggleStream(st.or, 1<<15, rng.Int63()))
	if err != nil {
		return tot, err
	}
	defer l.close()
	v0 := st.srv.svc.Snapshot().Version()
	w0 := st.srv.writes.Load()
	var phases []*phase
	runPhase := func(rate, tcpShare float64, d time.Duration, backlog int) *phase {
		p := l.run(l.schedule(rng, rate, tcpShare, d), d, backlog)
		phases = append(phases, p)
		return p
	}
	runPhase(readNominal, tcpNominal/readNominal, 200*time.Millisecond, 0) // warm-up
	var nominal *phase
	cost := measure(func() { nominal = runPhase(readNominal, tcpNominal/readNominal, budget/2, 0) })
	rep.peakOf("read nominal", false)
	nom := summarise(nominal)
	lag := percentile(slices.Clone(nominal.lag), 99)
	fmt.Printf("  read nominal %6.0f/s: lag p50 %.0f us p99 %.0f us (limit %.0f us); %s\n",
		readNominal, percentile(slices.Clone(nominal.lag), 50), lag, us(readLagLimit), cost.describe(nom.attempted))
	if lag > us(readLagLimit) {
		rep.fail("read generator fell behind: send lag p99 %.0f µs at the nominal rate", lag)
	}
	// The saturation phases: TCP, then HTTP, each offered its saturation
	// rate with the other connection at its nominal share.
	offered := offeredRates(nominal)
	var capacity, cpu [2]float64
	for c := range connNames {
		tcp, http := tcpSaturate, httpNominal
		if c == 1 {
			tcp, http = tcpNominal, httpSaturate
		}
		var sat *phase
		satCost := measure(func() { sat = runPhase(tcp+http, tcp/(tcp+http), saturation(budget), satBacklog) })
		cc := readCapacity(sat)[c]
		rep.peakOf(connNames[c]+" saturation", false)
		capacity[c] = cc.rate / (1 - satCost.steal)
		cpu[c] = satCost.cpuPerOp(cc.done)
		share := offered[c] / cc.rate
		fmt.Printf("  read %-4s saturation: offered %.0f/s, completed %.0f/s; nominal %.0f/s is %.3f of it; %s\n",
			connNames[c], cc.offered, cc.rate, offered[c], share, satCost.describe(cc.done))
		if !cc.saturated {
			rep.fail("read saturation phase did not saturate the %s connection: offered %.0f/s, completed %.0f/s",
				connNames[c], cc.offered, cc.rate)
		}
		if share > kneeShare {
			rep.fail("read nominal rate is not below the knee: %s offered %.0f/s at the nominal rate, %.3f of its saturation throughput (limit %.2f)",
				connNames[c], offered[c], share, kneeShare)
		}
	}
	checked := 0
	for _, p := range phases {
		r := summarise(p)
		tot.attempted += r.attempted
		tot.failed += r.failed
		n, err := check(p)
		checked += n
		if err != nil {
			rep.fail("read response check: %v", err)
			break
		}
	}
	fmt.Printf("read: nominal %.0f/s for %s, saturation tcp %.0f/s then http %.0f/s for %s each, %d responses checked\n",
		readNominal, budget/2, tcpSaturate, httpSaturate, saturation(budget), checked)
	rep.add(false, "tcp_read_rate_max", capacity[0], "1/s", 1, "TCP reads completed per unstolen second while offered more than it takes")
	rep.add(false, "http_read_rate_max", capacity[1], "1/s", 1, "HTTP reads completed per unstolen second while offered more than it takes")
	rep.add(false, "tcp_read_cpu_us", cpu[0], "us", 1, "process CPU time per TCP read completed while saturated")

	rep.add(true, "workload.tcp_read_p50_us", percentile(slices.Clone(nom.tcp), 50), "us", len(nom.tcp), "at the nominal rate")
	rep.add(true, "workload.tcp_read_p99_us", percentile(slices.Clone(nom.tcp), 99), "us", len(nom.tcp), "at the nominal rate")
	rep.add(true, "workload.http_read_p50_us", percentile(slices.Clone(nom.http), 50), "us", len(nom.http), "at the nominal rate")
	rep.add(true, "workload.http_read_p99_us", percentile(slices.Clone(nom.http), 99), "us", len(nom.http), "at the nominal rate")
	rep.add(true, "process.http_read_cpu_us", cpu[1], "us", 1, "process CPU time per HTTP read completed while saturated")
	rep.add(true, "process.read_alloc_bytes", float64(cost.allocated)/float64(nom.attempted), "B", nom.attempted, "heap bytes allocated per op at the nominal rate")
	if !tr.on {
		return tot, nil
	}
	hs := tr.micros("httpapi.handler", nominal.from, nominal.to)
	ts := tr.micros("framesrv.turn", nominal.from, nominal.to)
	rep.add(true, "httpapi.handler_p50_us", percentile(hs, 50), "us", len(hs), "inside the wrapped handler")
	rep.add(true, "httpapi.handler_p99_us", percentile(hs, 99), "us", len(hs), "")
	rep.add(true, "framesrv.turn_p50_us", percentile(ts, 50), "us", len(ts), "conn Read to the answering Write")
	rep.add(true, "framesrv.turn_p99_us", percentile(ts, 99), "us", len(ts), "")
	tcpReqs := 0
	for _, p := range phases {
		for i := range p.arrivals {
			if a := &p.arrivals[i]; a.tcp && !a.skipped {
				tcpReqs++
			}
		}
	}
	writes := st.srv.writes.Load() - w0
	rep.add(true, "framesrv.reqs_per_write", float64(tcpReqs)/float64(max(writes, 1)), "ratio", int(writes), "")
	fresh, fetches := freshShare(phases)
	rep.add(true, "respcache.fresh_frac", fresh, "fraction", fetches, "snapshot fetches that saw a new version")
	rep.add(true, "respcache.encode_us", encodeMicros(st.srv.svc.Snapshot()), "us", 21, "Binary on a new version, median")
	rep.add(true, "serve.versions_published", float64(st.srv.svc.Snapshot().Version()-v0), "count", 1, "")
	rep.add(true, "workload.send_lag_p99_us", lag, "us", len(nominal.lag), "validity check, at the nominal rate")
	return tot, nil
}

// A stage spends half its budget in the nominal phase and half saturated:
// a quarter per read connection, or all of it on the single write path.
// The end-to-end metrics of the serving stages come from the saturation
// phases, and each spans several GC cycles and, for writes, a dozen
// checkpoint cycles or more.

// saturation is the length of a read saturation phase; the write stage's
// lasts twice as long.
func saturation(budget time.Duration) time.Duration { return max(budget/4, 1500*time.Millisecond) }

// connNames names the read connections, indexed as readCapacity's result.
var connNames = [2]string{"tcp", "http"}

// connIndex is an arrival's connection: 0 for TCP, 1 for HTTP.
func connIndex(a *arrival) int {
	if a.tcp {
		return 0
	}
	return 1
}

// offeredRates is the arrivals per second a phase scheduled on each
// connection.
func offeredRates(p *phase) [2]float64 {
	var n [2]float64
	for i := range p.arrivals {
		n[connIndex(&p.arrivals[i])]++
	}
	return [2]float64{n[0] / p.dur.Seconds(), n[1] / p.dur.Seconds()}
}

// connCapacity is one connection's outcome in a saturation phase.
type connCapacity struct {
	offered   float64 // arrivals/s scheduled
	done      int     // reads completed before the schedule ended
	rate      float64 // done per second
	saturated bool    // its backlog grew: it completed markedly fewer than it was offered
}

// readCapacity is each connection's read throughput in a saturation
// phase. A connection's rate is its service rate only if it saturated;
// one that kept up completed just what it was offered, which says nothing
// of what it could take.
func readCapacity(p *phase) [2]connCapacity {
	var sent, done [2]int
	for i := range p.arrivals {
		a := &p.arrivals[i]
		c := connIndex(a)
		sent[c]++
		if !a.failed && !a.skipped && !a.done.After(p.start.Add(p.dur)) {
			done[c]++
		}
	}
	var out [2]connCapacity
	for c := range out {
		out[c] = connCapacity{
			offered:   float64(sent[c]) / p.dur.Seconds(),
			done:      done[c],
			rate:      float64(done[c]) / p.dur.Seconds(),
			saturated: sent[c]-done[c] > max(32, sent[c]/50),
		}
	}
	return out
}

// freshShare is the share of full-snapshot responses, in completion
// order, that carried a version no earlier one had: each such fetch made
// the shared cache encode. It also returns the number of fetches.
func freshShare(phases []*phase) (float64, int) {
	type fetch struct {
		at      time.Time
		version uint64
	}
	var fs []fetch
	for _, p := range phases {
		for i := range p.arrivals {
			a := &p.arrivals[i]
			if a.kind == readSnapshot && !a.failed && a.version != 0 {
				fs = append(fs, fetch{a.done, a.version})
			}
		}
	}
	if len(fs) == 0 {
		return 0, 0
	}
	slices.SortFunc(fs, func(a, b fetch) int { return a.at.Compare(b.at) })
	seen := map[uint64]bool{}
	fresh := 0
	for _, f := range fs {
		if !seen[f.version] {
			seen[f.version] = true
			fresh++
		}
	}
	return float64(fresh) / float64(len(fs)), len(fs)
}

// encodeMicros times respcache.Snapshot.Binary on a version the cache
// has not seen, 21 times, and returns the median in µs.
func encodeMicros(s *dynamic.Snapshot) float64 {
	var xs []float64
	for range 21 {
		c := new(respcache.Snapshot)
		t0 := time.Now()
		c.Binary(s, false)
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs)
}

// writeStage runs the open-loop durable writes (the nominal phase, then
// the saturation phase) and ends with the crash and recovery checks.
func writeStage(rep *report, tr *tracer, st *stack, rng *rand.Rand, budget time.Duration, workers int, fsyncP50 float64) (stageTotals, error) {
	var tot stageTotals
	if err := st.openDurable(); err != nil {
		return tot, err
	}
	w := &writeLoad{svc: st.dur, tr: tr, ops: toggleStream(st.or, 1<<18, rng.Int63())}
	s0, e0 := st.dur.Stats(), st.dur.Snapshot().Stats()
	var nominal *writePhase
	cost := measure(func() { nominal = w.run(rng, writeNominal, budget/2, false) })
	nom := summariseAcks(nominal)
	lag := percentile(slices.Clone(nominal.lag), 99)
	fmt.Printf("  write nominal %6.0f/s: lag p50 %.0f us p99 %.0f us (limit %.0f us); %s\n",
		writeNominal, percentile(slices.Clone(nominal.lag), 50), lag, us(writeLagLimit), cost.describe(nom.attempted*writeBatch))
	if lag > us(writeLagLimit) {
		rep.fail("write generator fell behind: send lag p99 %.0f µs at the nominal rate", lag)
	}
	rep.peakOf("write nominal", false)
	var sat *writePhase
	satCost := measure(func() { sat = w.run(rng, writeSaturate, 2*saturation(budget), true) })
	rep.peakOf("write saturation", false)
	phases := []*writePhase{nominal, sat}
	acked, saturated := sat.capacity()
	capacity := float64(acked) / sat.dur.Seconds()
	offered := float64(len(nominal.arrivals)*writeBatch) / nominal.dur.Seconds()
	fmt.Printf("  write saturation: offered %.0f ops/s, acked %.0f ops/s; nominal %.0f ops/s is %.3f of it; %s\n",
		writeSaturate*writeBatch, capacity, offered, offered/capacity, satCost.describe(acked))
	if !saturated {
		rep.fail("write saturation phase did not saturate: offered %.0f ops/s, acked %.0f ops/s", writeSaturate*writeBatch, capacity)
	}
	if offered/capacity > kneeShare {
		rep.fail("write nominal rate is not below the knee: %.0f ops/s is %.3f of the saturation throughput (limit %.2f)",
			offered, offered/capacity, kneeShare)
	}
	for _, p := range phases {
		r := summariseAcks(p)
		tot.attempted += r.attempted
		tot.failed += r.failed
	}
	s1, e1 := st.dur.Stats(), st.dur.Snapshot().Stats()
	fmt.Printf("write: nominal %.0f ops/s for %s, saturation %.0f ops/s for %s, checkpoint every %d ops\n",
		writeNominal*writeBatch, budget/2, writeSaturate*writeBatch, 2*saturation(budget), checkpointEvery)

	recoverS, quality, err := w.finish(st, workers, rep.peakOf)
	if err != nil {
		rep.fail("durable writes: %v", err)
	}
	rep.add(false, "update_rate_max", capacity/(1-satCost.steal), "ops/s", 1, "ops acked per unstolen second while offered more than it takes")
	rep.add(false, "write_cpu_us", satCost.cpuPerOp(acked), "us", 1, "process CPU time per op acked while saturated")
	rep.add(false, "quality_ratio", quality, "ratio", 1, "|S| after the stream / |S| of a fresh LP solve")
	rep.add(false, "recover_s", recoverS, "s", recoveries, "median Open after the crash, unstolen seconds")
	rep.add(true, "workload.ack_p50_ms", percentile(slices.Clone(nom.ack), 50), "ms", len(nom.ack), "Enqueue through Flush, at the nominal rate")
	rep.add(true, "workload.ack_p99_ms", percentile(slices.Clone(nom.ack), 99), "ms", len(nom.ack), "at the nominal rate")
	rep.add(true, "process.write_alloc_bytes", float64(cost.allocated)/float64(nom.attempted*writeBatch), "B", nom.attempted*writeBatch, "heap bytes allocated per op at the nominal rate")
	if !tr.on {
		return tot, nil
	}
	applied := float64(s1.Applied - s0.Applied)
	applies := tr.intervals("dynamic.apply", nominal.from, nominal.to)
	am := make([]float64, len(applies))
	for i, a := range applies {
		am[i] = us(a.end - a.start)
	}
	var applyTotal float64
	for _, a := range tr.intervals("dynamic.apply", nominal.from, phases[len(phases)-1].to) {
		applyTotal += us(a.end - a.start)
	}
	var enq []float64
	for i := range nominal.arrivals {
		if a := &nominal.arrivals[i]; a.start != 0 {
			enq = append(enq, us(a.enqueue))
		}
	}
	waits := ackWaits(nominal, applies)
	ckpts := s1.Checkpoints - s0.Checkpoints
	rep.add(true, "dynamic.apply_batch_p50_us", percentile(slices.Clone(am), 50), "us", len(am), "ApplyGate Acquire to Release")
	rep.add(true, "dynamic.apply_batch_p99_us", percentile(am, 99), "us", len(am), "")
	rep.add(true, "dynamic.apply_us_per_op", applyTotal/applied, "us", int(applied), "")
	rep.add(true, "dynamic.changed_frac", float64(s1.Changed-s0.Changed)/applied, "fraction", int(applied), "")
	rep.add(true, "dynamic.swaps_per_op", float64(e1.Swaps-e0.Swaps)/applied, "ratio", int(applied), "")
	rep.add(true, "dynamic.cand_churn_per_op",
		float64(e1.CandidatesCreated+e1.CandidatesDropped-e0.CandidatesCreated-e0.CandidatesDropped)/applied, "ratio", int(applied), "")
	rep.add(true, "serve.enqueue_p99_us", percentile(enq, 99), "us", len(enq), "time inside Enqueue")
	rep.add(true, "serve.queue_depth_p99", percentile(nominal.depth, 99), "ops", len(nominal.depth), "sampled every ms")
	rep.add(true, "serve.ops_per_batch", applied/float64(max(s1.Batches-s0.Batches, 1)), "ratio", int(s1.Batches-s0.Batches), "")
	rep.add(true, "serve.ack_wait_p50_us", percentile(waits, 50), "us", len(waits), "ack span minus the applies it covers")
	rep.add(true, "serve.checkpoint_stall_ms", float64(s1.CheckpointStallNs-s0.CheckpointStallNs)/1e6/float64(max(ckpts, 1)), "ms", int(ckpts), "writer stall per checkpoint")
	rep.add(true, "serve.checkpoints", float64(ckpts), "count", 1, "completed during the load")
	rep.add(true, "wal.ops_per_sync", float64(s1.GroupCommitOps-s0.GroupCommitOps)/float64(max(s1.WALSyncs-s0.WALSyncs, 1)), "ratio", int(s1.WALSyncs-s0.WALSyncs), "group commit")
	rep.add(true, "wal.bytes_per_op", float64(s1.WALBytes-s0.WALBytes)/applied, "B", int(applied), "")
	rep.add(true, "wal.fsync_p50_us", fsyncP50, "us", fsyncProbes, "standalone fsync on the store's filesystem")
	return tot, nil
}

// measure runs fn, one phase, with the garbage collector at its default
// settings as in cmd/dkserver, and returns what the phase cost. The phase
// starts right after a full GC, so every phase begins from the same heap.
func measure(fn func()) (r phaseCost) {
	runtime.GC()
	c0, a0 := gcCycles(), allocBytes()
	cpu0 := processCPU()
	clock := startHostClock()
	fn()
	r.cycles, r.allocated = gcCycles()-c0, allocBytes()-a0
	r.cpu = processCPU() - cpu0
	r.steal = clock.stolen()
	return r
}

// phaseCost is what a phase cost the process, and what the host took.
type phaseCost struct {
	cycles, allocated uint64  // GC cycles completed, heap bytes allocated
	cpu               float64 // s of process CPU time, user and system
	steal             float64 // share of the host's CPU time its hypervisor took
}

// cpuPerOp is the process CPU time per op in µs.
func (c phaseCost) cpuPerOp(ops int) float64 { return c.cpu * 1e6 / float64(max(ops, 1)) }

func (c phaseCost) describe(ops int) string {
	return fmt.Sprintf("cpu %.1f us/op, %d GC cycles, %.0f B/op allocated, host steal %.1f%%",
		c.cpuPerOp(ops), c.cycles, float64(c.allocated)/float64(max(ops, 1)), 100*c.steal)
}

// processCPU returns the process's user and system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostClock times an interval in the time the host gave this machine:
// its wall time less the share of the machine's CPU time the hypervisor
// stole meanwhile, as /proc/stat counts it (in 10 ms ticks per CPU, so a
// 0.2 s interval on 2 CPUs reads to 2.5%). Every end-to-end time and
// rate is taken on it. On a shared 2-vCPU host the steal share of a
// phase ranged from 0 to 37% within an hour, and the wall-clock figures
// followed it: HTTP reads completed 8,600/s at 0.7% steal and 5,800/s at
// 28%, which the stolen share accounts for (8,600 and 8,000 per
// unstolen second). Without steal the two clocks agree.
type hostClock struct {
	start        time.Time
	steal, total float64
}

func startHostClock() hostClock {
	s, t := hostSteal()
	return hostClock{time.Now(), s, t}
}

// seconds returns the unstolen seconds since start.
func (c hostClock) seconds() float64 {
	wall := time.Since(c.start).Seconds()
	return wall * (1 - c.stolen())
}

// stolen returns the share of the machine's CPU time stolen since start.
func (c hostClock) stolen() float64 {
	s, t := hostSteal()
	if t <= c.total {
		return 0
	}
	return (s - c.steal) / (t - c.total)
}

// hostSteal returns the stolen and the total CPU time of the host, in
// clock ticks, from /proc/stat; zeros where it cannot be read.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// allocBytes returns the heap bytes allocated since the process started.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fsyncProbes is how many 4 KiB write+fsync pairs the host probe times.
const fsyncProbes = 200

// fingerprint describes the host and measures fsync on the filesystem
// the stores use; it returns the description and the fsync p50 in µs.
func fingerprint(dir string) (string, float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var xs []float64
	for range fsyncProbes {
		if _, err := f.Write(buf); err != nil {
			return "", 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return "", 0, err
		}
		xs = append(xs, us(time.Since(t0)))
	}
	p50 := median(xs)
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	host := fmt.Sprintf("host: cpu %q nproc %d GOMAXPROCS %d %s fsync_p50 %.1f us (%d probes in %s)",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), p50, fsyncProbes, filepath.Base(dir))
	return host, p50, nil
}
