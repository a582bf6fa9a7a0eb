// Package dynamic maintains a near-optimal maximal set of disjoint
// k-cliques under edge insertions and deletions — the paper's Section V.
//
// The engine keeps, besides the result set S, the candidate-clique index of
// §V-B: every k-clique that contains at least one free node (a node in no
// S-clique) and whose non-free nodes all belong to a single S-clique (its
// owner). When an update touches an S-clique, the candidates owned by it
// are exactly the cliques a swap operation (Algorithm 4, TrySwap) may
// exchange it for; maintaining them incrementally is what makes updates run
// in micro- rather than milliseconds.
//
// Invariants maintained between public calls (checked by Verify):
//
//  1. S is a disjoint k-clique set of the current graph.
//  2. S is maximal: no k-clique exists whose members are all free.
//  3. The candidate index holds exactly the candidate k-cliques of §V-A
//     for the current graph and S, each keyed to its owner.
//
// The engine is single-writer, multi-reader: one goroutine at a time may
// call the mutating entry points, while any number of goroutines read the
// maintained result through Snapshot — an immutable point-in-time view
// published through an atomic pointer after every update (see snapshot.go).
// A published snapshot is never mutated; readers keep it valid forever.
package dynamic

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// free marks a node that belongs to no S-clique.
const free int32 = -1

// candidate is an indexed candidate k-clique: nodes are sorted; owner is
// the S-clique all its non-free nodes belong to. digest caches the
// members' FNV hash so the dedup index never re-hashes on lookup misses
// resolved by comparison or on drops.
type candidate struct {
	id     int32
	owner  int32
	digest uint64
	nodes  []int32
}

// Stats counts engine activity since construction.
type Stats struct {
	// IndexBuild is the time Construction (Algorithm 5) took.
	IndexBuild time.Duration
	// Swaps counts executed swap operations (voluntary and forced).
	Swaps int
	// CandidatesCreated / CandidatesDropped count index churn.
	CandidatesCreated int
	CandidatesDropped int
	// Insertions / Deletions count processed updates.
	Insertions int
	Deletions  int
	// Batches / BatchedOps count ApplyBatch calls and the ops they carried
	// (each op also increments Insertions or Deletions as usual).
	Batches    int
	BatchedOps int
}

// Engine maintains the disjoint k-clique set and its candidate index.
type Engine struct {
	g *graph.Dynamic
	k int

	// view is g seen through the substrate-neutral adjacency view the
	// unified enumeration core in internal/kclique runs on (oriented by
	// ascending node id). Boxed once at construction so the hot update
	// path never re-converts.
	view graph.View

	// workers bounds parallelism for index construction and batch update
	// rebuilds; <= 0 means GOMAXPROCS.
	workers int

	cliques    map[int32][]int32 // S: clique id -> sorted members
	nodeClique []int32           // node -> owning clique id, or free
	nextClique int32

	cands       map[int32]*candidate
	candDedup   *candDedup       // member digest -> candidate
	candsByOwn  map[int32]*idSet // clique id -> candidate ids owned
	candsByNode []idSet          // node -> candidate ids containing it
	nextCand    int32

	// batch, when non-nil, defers candidate rebuilds and swap processing so
	// ApplyBatch can coalesce and parallelise them; see batch.go.
	batch *batchState

	// esc is the single-writer enumeration scratch: every serial update
	// enumerates through these reusable buffers, so the steady-state update
	// path allocates nothing. The parallel batch rebuilds use the wsc
	// per-worker scratches instead (collectCandidates), kept for the
	// engine's lifetime so a long-running service reuses them batch after
	// batch — the same pooling discipline internal/kclique applies to the
	// static counting oracles.
	esc *enumScratch
	wsc []*enumScratch

	// noStamp disables the stamped-intersection fast path of the unified
	// enumeration core (ablation: cmd/experiments -unified=off). Results
	// are identical either way; only the intersection strategy changes.
	noStamp bool

	// snapSlab / snapUsed carve published Snapshot structs out of
	// slab-allocated blocks so publication is allocation-free in steady
	// state; see nextSnapshot in snapshot.go.
	snapSlab []Snapshot
	snapUsed int

	// sgen counts changes to S (clique installs/removals); publish reuses
	// the previous snapshot's arrays when it has not moved. orderIds /
	// orderCliques hold S sorted by clique id, maintained incrementally by
	// orderInstall/orderRemove, so publication clones flat arrays instead
	// of sorting; the member slices are shared with e.cliques and never
	// mutated in place. snap holds the latest published snapshot — the
	// only engine state readers may touch.
	sgen         uint64
	orderIds     []int32
	orderCliques [][]int32
	snap         atomic.Pointer[Snapshot]

	// ver0 seeds the version counter of the first published snapshot
	// (ver0 + 1). Zero for fresh engines; LoadCheckpoint sets it so a
	// recovered engine resumes the persisted version sequence and replayed
	// updates land on exactly the version numbers they had pre-crash.
	ver0 uint64

	// nodePages is the currently published paged membership index;
	// nodeDirty/nodeDirtyB track which pages the updates since the last
	// publish touched, so publication refreshes only those (snapshot.go).
	nodePages  [][]int32
	nodeDirty  []int32
	nodeDirtyB []bool

	stats Stats

	// noSwaps disables voluntary swap operations (ablation studies); all
	// correctness invariants still hold, only result quality drops.
	noSwaps bool
}

// DisableSwaps turns off voluntary swap operations. Used by the ablation
// benchmarks to quantify how much TrySwap contributes to result quality.
func (e *Engine) DisableSwaps() { e.noSwaps = true }

// DisableUnifiedFastPath forces every enumeration the engine issues onto
// the pure merge-scan path, turning off the stamped-intersection first
// level the unified core shares with the static enumerators. Used by the
// cmd/experiments -unified=off ablation to make the speedup of the shared
// fast path reproducible; the maintained result is identical either way.
func (e *Engine) DisableUnifiedFastPath() {
	e.noStamp = true
	e.esc.kc.NoStamp = true
	for _, sc := range e.wsc {
		sc.kc.NoStamp = true
	}
}

// New builds an engine from a static graph and an initial disjoint
// k-clique set (typically the output of the static LP algorithm), then
// constructs the candidate index with Algorithm 5 using every CPU.
func New(g *graph.Graph, k int, initial [][]int32) (*Engine, error) {
	return NewWorkers(g, k, initial, 0)
}

// NewWorkers is New with an explicit parallelism bound for the Algorithm-5
// index construction and later ApplyBatch rebuilds; workers <= 0 means
// GOMAXPROCS. The constructed engine is identical for every worker count.
func NewWorkers(g *graph.Graph, k int, initial [][]int32, workers int) (*Engine, error) {
	if k < 3 {
		return nil, fmt.Errorf("dynamic: k must be >= 3, got %d", k)
	}
	e := newEngineShell(graph.DynamicFrom(g), k, workers)
	for _, c := range initial {
		if len(c) != k {
			return nil, fmt.Errorf("dynamic: initial clique has %d members, want %d", len(c), k)
		}
		if !e.g.IsClique(c) {
			return nil, fmt.Errorf("dynamic: initial members %v are not a clique", c)
		}
		cc := append([]int32(nil), c...)
		slices.Sort(cc)
		id := e.nextClique
		e.nextClique++
		for _, u := range cc {
			if e.nodeClique[u] != free {
				return nil, fmt.Errorf("dynamic: node %d in two initial cliques", u)
			}
			e.nodeClique[u] = id
		}
		e.cliques[id] = cc
		e.orderInstall(id, cc)
	}
	// The candidate index assumes S is maximal (a non-maximal S would make
	// all-free cliques "candidates" of nobody). Complete the initial set
	// greedily over the free-node induced subgraph before indexing.
	e.completeMaximal(g)
	start := time.Now()
	e.buildIndex()
	e.stats.IndexBuild = time.Since(start)
	e.publish()
	return e, nil
}

// newEngineShell builds an engine around an existing dynamic graph with
// an empty result set and candidate index. Shared by the public
// constructors and the checkpoint loader.
func newEngineShell(dg *graph.Dynamic, k, workers int) *Engine {
	n := dg.N()
	e := &Engine{
		g:           dg,
		k:           k,
		workers:     workers,
		cliques:     make(map[int32][]int32),
		nodeClique:  make([]int32, n),
		cands:       make(map[int32]*candidate),
		candsByOwn:  make(map[int32]*idSet),
		candsByNode: make([]idSet, n),
		esc:         newEnumScratch(k),
	}
	e.view = e.g.View()
	e.candDedup = newCandDedup()
	for i := range e.nodeClique {
		e.nodeClique[i] = free
	}
	return e
}

// completeMaximal extends S with disjoint k-cliques drawn from the free
// nodes of the static build-time graph until no all-free k-clique remains.
// A single greedy enumeration pass suffices: any clique whose members are
// all still free when the pass ends would have been taken when visited.
func (e *Engine) completeMaximal(g *graph.Graph) {
	var freeNodes []int32
	for u := int32(0); int(u) < g.N(); u++ {
		if e.nodeClique[u] == free {
			freeNodes = append(freeNodes, u)
		}
	}
	if len(freeNodes) < e.k {
		return
	}
	sub, ids := g.Induced(freeNodes)
	d := graph.Orient(sub, graph.ListingOrdering(sub))
	kclique.ForEach(d, e.k, func(c []int32) bool {
		ok := true
		for _, x := range c {
			if e.nodeClique[ids[x]] != free {
				ok = false
				break
			}
		}
		if ok {
			members := make([]int32, len(c))
			for i, x := range c {
				members[i] = ids[x]
			}
			slices.Sort(members)
			id := e.nextClique
			e.nextClique++
			for _, u := range members {
				e.nodeClique[u] = id
			}
			e.cliques[id] = members
			e.orderInstall(id, members)
		}
		return true
	})
}

// K returns the clique size.
func (e *Engine) K() int { return e.k }

// Size returns |S|.
func (e *Engine) Size() int { return len(e.cliques) }

// NumCandidates returns the current size of the candidate index.
func (e *Engine) NumCandidates() int { return len(e.cands) }

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Graph exposes the current dynamic graph (read-only use).
func (e *Engine) Graph() *graph.Dynamic { return e.g }

// Result returns the current disjoint k-clique set, each clique sorted,
// cliques ordered by id for determinism. It reads the published snapshot,
// so the call is allocation-free; the returned slices are immutable
// point-in-time data shared with the snapshot and must not be modified
// (they stay valid and unchanged across later updates).
func (e *Engine) Result() [][]int32 { return e.Snapshot().Cliques() }

// IsFree reports whether u belongs to no S-clique.
func (e *Engine) IsFree(u int32) bool { return e.nodeClique[u] == free }

// addCandidate indexes a candidate clique (members must be sorted) unless
// an identical one exists. Reports whether it was new.
func (e *Engine) addCandidate(nodes []int32, owner int32) bool {
	_, added := e.ensureCandidate(nodes, owner)
	return added
}

// ensureCandidate is addCandidate returning the candidate's id as well:
// the id of the existing identical candidate when one is indexed, the
// freshly assigned id otherwise. The differential rebuilds key their
// keep/stale sets on these ids, so an unchanged candidate costs one
// dedup probe instead of a drop-and-reinsert cycle through every index
// structure. An existing candidate necessarily already has this owner —
// its non-free members determine the owner uniquely, and the index never
// holds a candidate across an S change that moved them.
func (e *Engine) ensureCandidate(nodes []int32, owner int32) (int32, bool) {
	digest := hashNodes(nodes)
	if c, ok := e.candDedup.lookup(nodes, digest); ok {
		return c.id, false
	}
	id := e.nextCand
	e.nextCand++
	c := &candidate{id: id, owner: owner, digest: digest, nodes: append([]int32(nil), nodes...)}
	e.cands[id] = c
	e.candDedup.insert(c)
	own := e.candsByOwn[owner]
	if own == nil {
		own = &idSet{}
		e.candsByOwn[owner] = own
	}
	own.add(id)
	for _, u := range c.nodes {
		e.candsByNode[u].add(id)
	}
	e.stats.CandidatesCreated++
	return id, true
}

// candRenumberAt bounds candidate-id assignment. Ids only grow — every
// new candidate takes the next one — so a long-lived engine would run
// the int32 counter into live ids; once it passes this mark, the next
// update starts by renumbering the index. Half the int32 range leaves far
// more headroom than one update or batch can use.
const candRenumberAt = math.MaxInt32 / 2

// renumberCandidates rebuilds the candidate index from scratch when id
// assignment has passed candRenumberAt. The rebuild assigns ids from 0
// again, in the Algorithm-5 order LoadCheckpoint uses, and drops the
// capacity the index maps accumulated. The candidate set is unchanged (the
// index is a function of graph and S) and no decision reads an id, so the
// rebuild is invisible outside the index. It runs only at the start of a
// public update, never inside one: the differential rebuilds hold
// candidate ids across their steps. Stats are preserved; nothing is
// published.
func (e *Engine) renumberCandidates() {
	if e.nextCand < candRenumberAt || e.batch != nil {
		return
	}
	st := e.stats
	e.cands = make(map[int32]*candidate, len(e.cands))
	e.candDedup = newCandDedup()
	e.candsByOwn = make(map[int32]*idSet, len(e.candsByOwn))
	for i := range e.candsByNode {
		e.candsByNode[i].items = e.candsByNode[i].items[:0]
	}
	e.nextCand = 0
	e.buildIndex()
	e.stats = st
}

// dropCandidate removes a candidate from every index.
func (e *Engine) dropCandidate(id int32) {
	c, ok := e.cands[id]
	if !ok {
		return
	}
	delete(e.cands, id)
	e.candDedup.delete(c)
	if own := e.candsByOwn[c.owner]; own != nil {
		own.remove(id)
		if own.size() == 0 {
			delete(e.candsByOwn, c.owner)
		}
	}
	for _, u := range c.nodes {
		e.candsByNode[u].remove(id)
	}
	e.stats.CandidatesDropped++
}

// numCandidatesOfOwner returns how many candidates the clique owns.
func (e *Engine) numCandidatesOfOwner(owner int32) int {
	if own := e.candsByOwn[owner]; own != nil {
		return own.size()
	}
	return 0
}

// dropCandidatesOfOwner removes every candidate owned by the clique.
func (e *Engine) dropCandidatesOfOwner(owner int32) {
	if own := e.candsByOwn[owner]; own != nil {
		for _, id := range append([]int32(nil), own.ids()...) {
			e.dropCandidate(id)
		}
	}
}

// dropStaleCandidates removes every candidate owned by the clique whose
// id is not in kept (sorted ascending). kept must be a subset of the
// owner's candidate ids, so equal sizes mean nothing is stale — the
// common case for rebuilds whose enumeration reproduced the whole set.
func (e *Engine) dropStaleCandidates(owner int32, kept []int32) {
	own := e.candsByOwn[owner]
	if own == nil || own.size() == len(kept) {
		return
	}
	stale := e.esc.stale[:0]
	for _, id := range own.ids() {
		if !graph.SortedContains(kept, id) {
			stale = append(stale, id)
		}
	}
	e.esc.stale = stale
	for _, id := range stale {
		e.dropCandidate(id)
	}
}

// dropCandidatesWithNode removes every candidate containing u.
func (e *Engine) dropCandidatesWithNode(u int32) {
	if s := &e.candsByNode[u]; s.size() > 0 {
		for _, id := range append([]int32(nil), s.ids()...) {
			e.dropCandidate(id)
		}
	}
}

// dropCandidatesWithEdge removes every candidate containing both u and v.
func (e *Engine) dropCandidatesWithEdge(u, v int32) {
	su, sv := &e.candsByNode[u], &e.candsByNode[v]
	if su.size() == 0 || sv.size() == 0 {
		return
	}
	if su.size() > sv.size() {
		su, sv = sv, su
	}
	// Collect into scratch first: dropCandidate mutates the sets being
	// intersected.
	hit := graph.IntersectSorted(e.esc.hits[:0], su.ids(), sv.ids())
	e.esc.hits = hit
	for _, id := range hit {
		e.dropCandidate(id)
	}
}

// candidateIDsOfOwner returns the ids of candidates owned by the clique,
// ascending (the idSet iterates sorted, so no re-sort is needed).
func (e *Engine) candidateIDsOfOwner(owner int32) []int32 {
	own := e.candsByOwn[owner]
	if own == nil {
		return nil
	}
	return append([]int32(nil), own.ids()...)
}
