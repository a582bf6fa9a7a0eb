package dynamic

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// anyOwner is the forEachCliqueWithEdge filter value meaning "no owner
// restriction": every extra member is allowed regardless of clique status.
const anyOwner int32 = -2

// enumScratch holds the reusable buffers of the engine's enumeration
// adapters: the kclique.Scratch the unified core recurses through, plus
// the engine-specific staging buffers around it. The single-writer update
// path uses the engine-level instance (e.esc), so steady-state updates
// allocate nothing; the parallel candidate-collection of ApplyBatch hands
// each worker its own instance (e.wsc, reused across batches).
type enumScratch struct {
	kc        *kclique.Scratch // unified-core recursion state (stack, levels, marks)
	edge      [2]int32         // prefix buffer for edge-anchored enumeration
	nodes     []int32          // enumeration base: B copy, or N(u) ∩ N(v)
	bbuf      []int32          // freeNeighborhood output
	sorted    []int32          // k-sized buffer for sorting candidate members
	owners    []int32          // owner ids gathered during an update
	hits      []int32          // candidate ids gathered by dropCandidatesWithEdge
	adjOwners []int32          // ownersAdjacentTo output
	keep      []int32          // surviving candidate ids in differential rebuilds
	stale     []int32          // dropStaleCandidates output
	swapLists [][]int32        // trySwap: member-list pointers for greedyDisjoint
	gdNodes   []int32          // greedyDisjoint: concatenated sorted members / used set
	gdEntries []gdEntry        // greedyDisjoint: selection order
	gdOut     [][]int32        // greedyDisjoint: selected subset (aliases inputs)
}

func newEnumScratch(k int) *enumScratch {
	return &enumScratch{
		kc:     kclique.NewScratch(k, 0),
		sorted: make([]int32, k),
	}
}

// forEachCliqueAmong enumerates every k-clique of the current graph whose
// members all lie in B (need not be sorted; duplicates allowed). fn may
// return false to stop. The callback slice is reused. All buffers come
// from sc, so a steady-state call allocates nothing once the scratch has
// grown to the workload's high-water mark.
//
// This is a thin adapter over the unified core: B becomes the first-level
// candidate set of a ForEachAmong run on the engine's id-oriented view,
// so it shares the stamped-intersection fast path (and any future one)
// with the static enumerators instead of maintaining a private recursion.
func (e *Engine) forEachCliqueAmong(sc *enumScratch, B []int32, fn func(c []int32) bool) {
	nodes := append(sc.nodes[:0], B...)
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	sc.nodes = nodes
	if len(nodes) < e.k {
		return
	}
	kclique.ForEachAmong(e.view, nil, e.k, nodes, sc.kc, fn)
}

// forEachCliqueWithEdge enumerates every k-clique of the current graph that
// contains the edge (u, v). Extra members are restricted by allowedOwner:
// anyOwner admits every node, otherwise only free nodes and members of the
// clique allowedOwner qualify (passing free admits free nodes only). fn may
// return false to stop; the callback slice is reused and holds u, v first.
// Uses the engine-level scratch: single-writer update path only.
//
// Thin adapter over the unified core: (u, v) is the fixed prefix and the
// owner-filtered common neighbourhood the candidate set of a ForEachAmong
// run on the engine's id-oriented view.
func (e *Engine) forEachCliqueWithEdge(u, v int32, allowedOwner int32, fn func(c []int32) bool) {
	if !e.g.HasEdge(u, v) {
		return
	}
	sc := e.esc
	sc.edge[0], sc.edge[1] = u, v
	if e.k == 2 {
		kclique.ForEachAmong(e.view, sc.edge[:], 0, nil, sc.kc, fn)
		return
	}
	// Common neighbourhood of u and v: one merge of the two sorted rows.
	cand := graph.IntersectSorted(sc.nodes[:0], e.g.Neighbors(u), e.g.Neighbors(v))
	sc.nodes = cand
	if allowedOwner != anyOwner {
		w := 0
		for _, x := range cand {
			if id := e.nodeClique[x]; id == free || id == allowedOwner {
				cand[w] = x
				w++
			}
		}
		cand = cand[:w]
	}
	if len(cand) < e.k-2 {
		return
	}
	kclique.ForEachAmong(e.view, sc.edge[:], e.k-2, cand, sc.kc, fn)
}

// freeNeighborhood returns B = C ∪ N_F(C): the clique members plus their
// free neighbours (Algorithm 5 line 2). The result lives in sc.bbuf.
func (e *Engine) freeNeighborhood(sc *enumScratch, members []int32) []int32 {
	B := append(sc.bbuf[:0], members...)
	for _, u := range members {
		for _, w := range e.g.Neighbors(u) {
			if e.nodeClique[w] == free {
				B = append(B, w)
			}
		}
	}
	sc.bbuf = B
	return B
}

// candidatesOf enumerates (read-only) the candidate cliques Algorithm 5
// would assign to the given S-clique under the current graph and free
// status: sorted member lists of k-cliques on B = C ∪ N_F(C), excluding C
// itself. Candidates already present in the index are returned as their
// ids (kept) without copying; only genuinely new ones are materialised
// (fresh). It also reports any all-free cliques encountered — a non-empty
// third result means S is not maximal and the caller must repair it.
// Reads only the graph, S, the free status and the dedup index (lookups,
// never mutation) and scratches through sc, so concurrent calls with
// distinct scratches are safe as long as no writer mutates the index.
func (e *Engine) candidatesOf(sc *enumScratch, id int32) (kept []int32, fresh, allFree [][]int32) {
	members := e.cliques[id]
	buf := sc.sorted[:e.k]
	e.forEachCliqueAmong(sc, e.freeNeighborhood(sc, members), func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		nonFree := 0
		for _, u := range buf {
			if e.nodeClique[u] != free {
				nonFree++
			}
		}
		switch {
		case nonFree == e.k:
			// Only C itself consists purely of non-free nodes inside B.
		case nonFree == 0:
			allFree = append(allFree, append([]int32(nil), buf...))
		default:
			if c, ok := e.candDedup.lookup(buf, hashNodes(buf)); ok {
				kept = append(kept, c.id)
			} else {
				fresh = append(fresh, append([]int32(nil), buf...))
			}
		}
		return true
	})
	return kept, fresh, allFree
}

// collectCandidates runs candidatesOf for the given owners on the worker
// pool and returns the per-owner results in input order. The computation
// is read-only with one scratch per worker, so the result is identical
// for every worker count. Worker scratches live on the engine (e.wsc) and
// are reused batch after batch, so a long-running service pays their
// warm-up once instead of reallocating every ApplyBatch.
func (e *Engine) collectCandidates(ids []int32) (kept [][]int32, fresh, allFree [][][]int32) {
	kept = make([][]int32, len(ids))
	fresh = make([][][]int32, len(ids))
	allFree = make([][][]int32, len(ids))
	for len(e.wsc) < kclique.Workers(e.workers, len(ids)) {
		sc := newEnumScratch(e.k)
		sc.kc.NoStamp = e.noStamp
		e.wsc = append(e.wsc, sc)
	}
	kclique.ParallelIndex(len(ids), e.workers, func(worker, i int) {
		kept[i], fresh[i], allFree[i] = e.candidatesOf(e.wsc[worker], ids[i])
	})
	return kept, fresh, allFree
}

// buildIndex constructs the whole candidate index from the current S —
// Algorithm 5, with the per-clique enumeration running root-parallel
// exactly as its line 1 prescribes. S must already be maximal. Candidate
// insertion happens serially in ascending clique-id order, so ids and
// stats are deterministic. (The index is empty here, so every enumerated
// candidate comes back fresh.)
func (e *Engine) buildIndex() {
	ids := make([]int32, 0, len(e.cliques))
	for id := range e.cliques {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	_, fresh, _ := e.collectCandidates(ids)
	for i, id := range ids {
		for _, c := range fresh[i] {
			e.addCandidate(c, id)
		}
	}
}

// rebuildCandidates brings the candidate set owned by the given S-clique
// up to date (the per-clique body of Algorithm 5), differentially:
// enumerate the k-cliques on B = C ∪ N_F(C), skip C itself, index the
// ones not yet present, and drop the previously owned candidates the
// enumeration no longer produced. A candidate that survives the update
// that dirtied its owner — the overwhelmingly common case under churn —
// thus costs one dedup probe and one keep-set entry instead of a full
// drop-and-reinsert cycle through the dedup, owner and per-node indexes.
// It reports whether any candidate is new relative to the previous index
// state. Any all-free clique encountered indicates a maximality breach
// and is repaired by direct insertion into S.
func (e *Engine) rebuildCandidates(id int32) bool {
	members, ok := e.cliques[id]
	if !ok {
		return false
	}
	sc := e.esc
	gained := false
	var repair [][]int32
	B := e.freeNeighborhood(sc, members)
	buf := sc.sorted[:e.k]
	kept := sc.keep[:0]
	e.forEachCliqueAmong(sc, B, func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		nonFree := 0
		for _, u := range buf {
			if e.nodeClique[u] != free {
				nonFree++
			}
		}
		switch {
		case nonFree == e.k:
			// Only C itself consists purely of non-free nodes inside B.
			return true
		case nonFree == 0:
			// All-free clique: S was not maximal. Repair after the scan.
			repair = append(repair, append([]int32(nil), buf...))
			return true
		default:
			cid, added := e.ensureCandidate(buf, id)
			if added {
				gained = true
			}
			kept = append(kept, cid)
			return true
		}
	})
	slices.Sort(kept)
	sc.keep = kept
	e.dropStaleCandidates(id, kept)
	for _, c := range repair {
		// Members may have been consumed by an earlier repair.
		allFree := true
		for _, u := range c {
			if e.nodeClique[u] != free {
				allFree = false
				break
			}
		}
		if allFree && e.g.IsClique(c) {
			e.addCliqueToS(c)
			// B changed; recompute this owner's candidates once more.
			return e.rebuildCandidates(id) || gained
		}
	}
	return gained
}

// installClique records a new S-clique over currently free nodes without
// touching the candidate index. Callers installing several cliques at once
// must install all of them before indexing any (indexClique), so that
// candidate rebuilds never observe a half-applied S.
func (e *Engine) installClique(members []int32) int32 {
	cc := append([]int32(nil), members...)
	slices.Sort(cc)
	id := e.nextClique
	e.nextClique++
	for _, u := range cc {
		e.nodeClique[u] = id
		e.markNodeDirty(u)
	}
	e.cliques[id] = cc
	e.orderInstall(id, cc)
	return id
}

// refreshOwner rebuilds the candidate set of an S-clique, reporting whether
// it gained a candidate. In batch mode the (expensive) enumeration is
// deferred instead: the owner is marked dirty and rebuilt once — in
// parallel with the other dirty owners — when the batch finishes, no
// matter how many updates touched it. Deferred refreshes report false;
// ApplyBatch re-derives swap eligibility from the final rebuilt sets.
func (e *Engine) refreshOwner(owner int32) bool {
	if e.batch != nil {
		e.batch.dirty[owner] = true
		return false
	}
	return e.rebuildCandidates(owner)
}

// indexClique brings the candidate index up to date with a freshly
// installed S-clique: candidates containing any of its nodes now span two
// cliques (their old owner and this one) and are dropped, then the new
// clique's own candidate set is built (deferred in batch mode).
func (e *Engine) indexClique(id int32) {
	for _, u := range e.cliques[id] {
		e.dropCandidatesWithNode(u)
	}
	e.refreshOwner(id)
}

// addCliqueToS installs and indexes a single new S-clique. Members must
// form a clique of free nodes.
func (e *Engine) addCliqueToS(members []int32) int32 {
	id := e.installClique(members)
	e.indexClique(id)
	return id
}

// removeCliqueFromS dissolves an S-clique: frees its nodes and drops its
// owned candidates. Neighbouring cliques' candidate sets are NOT refreshed
// here; callers must rebuild owners adjacent to the freed nodes. In batch
// mode the freed nodes are recorded so the end-of-batch maximality sweep
// can catch all-free cliques a deferred rebuild would have repaired.
func (e *Engine) removeCliqueFromS(id int32) []int32 {
	members := e.cliques[id]
	delete(e.cliques, id)
	for _, u := range members {
		e.nodeClique[u] = free
		e.markNodeDirty(u)
	}
	e.orderRemove(id)
	if e.batch != nil {
		for _, u := range members {
			e.batch.touched[u] = true
		}
		delete(e.batch.dirty, id)
	}
	e.dropCandidatesOfOwner(id)
	return members
}

// ownersAdjacentTo returns the ids of S-cliques with a member adjacent to
// any of the given nodes (excluding the nodes' own cliques), sorted. The
// result lives in the engine scratch and is valid until the next call.
func (e *Engine) ownersAdjacentTo(nodes []int32) []int32 {
	out := e.esc.adjOwners[:0]
	for _, u := range nodes {
		for _, w := range e.g.Neighbors(u) {
			if id := e.nodeClique[w]; id != free {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	e.esc.adjOwners = out
	return out
}
