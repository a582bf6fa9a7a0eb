// Command perfbench is the repository's benchmark. One process runs one
// named workload through the whole system — a static LP solve, open-loop
// reads over HTTP and TCP against an in-memory service, and open-loop
// durable writes ending in a crash and recovery — and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the
// last line of its output. The workload decides which stage gets the
// measurement window and which graph the static stage solves; see
// README.md for the metrics and what each layer metric should move.
// From the repository root:
//
//	bash perfbench/run.sh --workload static-solve --seed 1 --seconds 10 --trace 0
//
// Stores and trace files go under .bench_build/perfbench there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workload"
)

// k is the clique size of every workload.
const k = 4

// plan is one workload: which graph the static stage solves and which
// stage gets the full measurement window. The other stages run as
// shorter controls, so every run reports every end-to-end metric.
type plan struct {
	name string
	why  string
	big  bool   // the static stage solves the 400k-node graph
	main string // "solve", "read" or "write"
}

var plans = []plan{
	{name: "static-solve", big: true, main: "solve",
		why: "graph, kclique, core and index construction do the work, with no serving, WAL or transport: " +
			"it shows enumeration and selection gains and is the control for every serving change"},
	{name: "serve-read", main: "read",
		why: "framesrv, httpapi, respcache/wire and the client do the work and the engine almost none; " +
			"the two transports are each other's control and the 1% write trickle makes the response cache miss"},
	{name: "write-durable", main: "write",
		why: "dynamic.ApplyBatch, the serve writer and group commit, WAL append and fsync, and checkpoints do the work, " +
			"with no transport; many flushes are in flight at once so group commit can show"},
}

// setupReps is how many times a run brings the whole stack up; setup_s
// is the median.
const setupReps = 3

// A stage that is not the workload's main one runs as a control: the
// serving stages for controlShare of --seconds, which keeps thousands of
// samples, several GC cycles and several checkpoints in each phase, and
// the static stage for solveControl, whose repeated solves run for a
// quarter of it.
const (
	controlShare = 0.8
	solveControl = 12 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name: static-solve, serve-read or write-durable")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measurement window of the workload's main stage")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead")
	flag.Parse()
	var p *plan
	for i := range plans {
		if plans[i].name == *name {
			p = &plans[i]
		}
	}
	if p == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	res, err := run(*p, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each, with its sample count, as it
// is added.
type report struct {
	e2e, layer map[string]metric
	problems   []string

	// retained is the largest live heap settle has seen, in bytes.
	retained float64

	// peaks samples the heap; counted holds the peaks of the parts that
	// count, and peakNotes describes every part's.
	peaks     *heapPeak
	counted   []float64
	peakNotes []string
}

// peakOf ends a part of the run for the heap peak: it takes the peak
// since the previous part ended and, if counts, keeps it for
// peak_heap_mb, the largest over the set-ups. Each set-up builds the
// whole system (generation, LP solve, index build, services and servers
// up), so its peak holds the solver's and the index build's transient
// memory. A GC cycle that happens to sweep just before the peak lowers
// one set-up's by a quarter now and then, which the largest of three
// rides over. The other parts are printed but not counted: the static
// stage solves while the set-up's result is still live, a read
// saturation phase's heap is mostly the generator's schedule, and the
// write path's peak moves with whether a cycle marks during a checkpoint
// capture.
func (r *report) peakOf(part string, counts bool) {
	p := r.peaks.take()
	if counts {
		r.counted = append(r.counted, p)
	} else {
		part += " (not counted)"
	}
	r.peakNotes = append(r.peakNotes, fmt.Sprintf("%s %.1f", part, p))
}

// settle runs freshHeap at a stage boundary and records the live heap
// then: what is live there is the system's state (graphs, engines,
// indexes, services), not garbage whose amount depends on when the last
// cycle happened to run. It is printed as a note next to peak_heap_mb.
func (r *report) settle() {
	freshHeap()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	r.retained = max(r.retained, float64(s[0].Value.Uint64()))
}

// heapPeak samples the bytes in heap objects (live ones and garbage not
// yet swept) every peakEvery and keeps the largest value since the last
// take: the heap at its fullest, transient working memory included —
// solver scratch, index builds, checkpoint captures, requests in flight.
// Heap objects only shrink when a GC cycle sweeps, so a peak lasts until
// the next cycle and a millisecond sampler sees it.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const peakEvery = time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(peakEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// take returns the peak in MB since the last take and starts a new one.
func (h *heapPeak) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapPeak) close() { close(h.stop); <-h.done }

// freshHeap runs two full GCs, the second of which also empties the
// sync.Pool caches the first kept and returns the freed memory to the
// OS, so the next stage starts from the same memory state whatever the
// earlier stages allocated.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

func (r *report) add(layer bool, name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s has no finite value", name)
		v = 0
	}
	m := r.e2e
	if layer {
		m = r.layer
	}
	m[name] = metric{Value: v, Unit: unit}
	kind := "e2e"
	if layer {
		kind = "layer"
	}
	fmt.Printf("%-5s %-28s %14.6g %-6s n=%-7d %s\n", kind, name, v, unit, n, note)
}

// fail records a correctness problem; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Println("CHECK FAILED:", msg)
}

// stack is one brought-up system: the solved primary graph and, over the
// OR stand-in, the in-memory service behind both servers and the durable
// service.
type stack struct {
	g          *graph.Graph
	cliques    [][]int32
	find       float64 // s
	index      float64 // s
	candidates int

	or     *graph.Graph
	orS    [][]int32
	srv    *servers
	dur    *serve.Service
	dir    string
	durOpt serve.Options
}

// primaryGraph is the graph the static stage solves.
func primaryGraph(p plan, seed int64) *graph.Graph {
	if p.big {
		return gen.CommunitySocial(400000, 10, 0.25, 2000000, seed)
	}
	return orStandIn(seed)
}

// orStandIn is the shape of the dataset registry's OR (Orkut) stand-in
// (40k nodes, ~384k edges) drawn from the run's seed.
func orStandIn(seed int64) *graph.Graph { return gen.CommunitySocial(40000, 10, 0.25, 200000, seed) }

func findLP(g *graph.Graph, workers int) (*core.Result, float64, error) {
	c := startHostClock()
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, Workers: workers})
	return res, c.seconds(), err
}

// setUp generates the inputs, solves them, builds the Algorithm-5 index
// and brings the servers and the durable store up.
func setUp(p plan, seed int64, workers int, tr *tracer, dir string) (*stack, error) {
	s := &stack{dir: dir, g: primaryGraph(p, seed)}
	res, secs, err := findLP(s.g, workers)
	if err != nil {
		return nil, err
	}
	s.cliques, s.find = res.Cliques, secs
	c := startHostClock()
	eng, err := dynamic.NewWorkers(s.g, k, s.cliques, workers)
	if err != nil {
		return nil, err
	}
	s.index = c.seconds()
	s.candidates = eng.Stats().CandidatesCreated
	if p.big {
		s.or = orStandIn(seed)
		r, _, err := findLP(s.or, workers)
		if err != nil {
			return nil, err
		}
		s.orS = r.Cliques
	} else {
		s.or, s.orS = s.g, s.cliques
	}
	mem, err := serve.New(s.or, k, s.orS, serve.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	if s.srv, err = startServers(mem, tr); err != nil {
		mem.Close()
		return nil, err
	}
	s.durOpt = durableOptions(dir, workers)
	if tr.on {
		s.durOpt.ApplyGate = &tracedGate{tr: tr}
	}
	if s.dur, err = serve.New(s.or, k, s.orS, s.durOpt); err != nil {
		s.srv.close()
		return nil, err
	}
	return s, nil
}

// Each serving stage runs with only its own service live, as
// cmd/dkserver runs one service per process: a second service would
// double the heap the collector marks, making its cycles half as frequent
// and twice as long. parkDurable closes the durable service cleanly (its
// final checkpoint) until the write stage, which restarts it from its
// store with openDurable; closeServers ends the read stage's service and
// servers.
func (s *stack) parkDurable() error {
	err := s.dur.Close()
	s.dur = nil
	return err
}

func (s *stack) openDurable() (err error) {
	s.dur, err = serve.Open(s.dir, s.durOpt)
	return err
}

func (s *stack) closeServers() error {
	err := s.srv.close()
	s.srv = nil
	return err
}

func (s *stack) tearDown() error {
	var err error
	if s.srv != nil {
		err = s.srv.close()
	}
	if s.dur != nil {
		err = errors.Join(err, s.dur.Close())
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

func run(p plan, seed int64, window time.Duration, traceOn bool) (*result, error) {
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(traceOn)
	rep := &report{e2e: map[string]metric{}, layer: map[string]metric{}}
	control := time.Duration(float64(window) * controlShare)
	budget := func(stage string) time.Duration {
		switch {
		case stage == p.main:
			return window
		case stage == "solve":
			return solveControl
		}
		return control
	}

	host, fsyncP50, err := fingerprint(work)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d window %s trace %v\nwhy: %s\n%s\n", p.name, seed, window, traceOn, p.why, host)

	rep.peaks = startHeapPeak()
	defer rep.peaks.close()

	// Set-up, several times; the last stack stays up for the stages.
	var setups, finds, indexes []float64
	var st *stack
	for i := range setupReps {
		if st != nil {
			if err := st.tearDown(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(work, fmt.Sprintf("store-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		c := startHostClock()
		if st, err = setUp(p, seed, workers, tr, dir); err != nil {
			return nil, err
		}
		setups = append(setups, c.seconds())
		rep.peakOf("set-up", true)
		rep.settle()
		finds = append(finds, st.find)
		indexes = append(indexes, st.index)
	}
	defer func() {
		if st != nil {
			st.tearDown()
		}
	}()

	var attempted, failed int64
	cliques := solveStage(rep, tr, st, finds, indexes, budget("solve"), workers)
	rep.peakOf("static", false)
	rep.settle()
	st.dropStatic()
	if err := st.parkDurable(); err != nil {
		return nil, err
	}

	rr, err := readStage(rep, tr, st, rand.New(rand.NewSource(seed+1)), budget("read"))
	if err != nil {
		return nil, err
	}
	attempted, failed = attempted+int64(rr.attempted), failed+int64(rr.failed)
	if err := st.closeServers(); err != nil {
		return nil, err
	}

	wr, err := writeStage(rep, tr, st, rand.New(rand.NewSource(seed+2)), budget("write"), workers, fsyncP50)
	if err != nil {
		return nil, err
	}
	attempted, failed = attempted+int64(wr.attempted), failed+int64(wr.failed)

	rep.add(false, "setup_s", median(setups), "s", len(setups), "median full bring-up, unstolen seconds")
	fmt.Printf("  heap peak by part, MB: %s; largest live heap after a full GC %.1f MB\n",
		strings.Join(rep.peakNotes, ", "), rep.retained/(1<<20))
	rep.add(false, "peak_heap_mb", slices.Max(rep.counted), "MB", len(rep.counted), "largest heap-object bytes in the set-ups, sampled every ms")
	rep.add(false, "cliques", float64(cliques), "count", 1, "|S| of the LP solve")
	rep.add(true, "workload.failed_frac", float64(failed)/float64(max(attempted, 1)), "fraction", int(attempted), "failed over attempted, every read and write op")
	if traceOn {
		rep.add(true, "trace.spans", float64(tr.count()), "count", 1, "spans recorded")
		path := filepath.Join(work, "trace-"+p.name+".tsv")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Println("spans written to", path)
	}
	if err := st.tearDown(); err != nil {
		return nil, err
	}
	st = nil
	res := &result{Correct: len(rep.problems) == 0, Attempted: attempted, Failed: failed, Metrics: rep.e2e}
	if traceOn {
		res.Metrics = rep.layer
	}
	return res, nil
}

// toggleStream is a deterministic delete-then-reinsert edge stream on g,
// the workload.ReadWriteClients rule with no reads.
func toggleStream(g *graph.Graph, n int, seed int64) []workload.Op {
	stream := workload.ReadWriteClients(g, 1, n, 0, seed)[0]
	ops := make([]workload.Op, len(stream))
	for i, c := range stream {
		ops[i] = c.Update
	}
	return ops
}
