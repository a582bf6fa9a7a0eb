package dynamic

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// gdEntry is a (clique index, local score) pair of greedyDisjoint's
// selection order; the slice lives in enumScratch so repeated swap checks
// reuse it.
type gdEntry struct {
	idx   int
	score int64
}

// greedyDisjoint selects a maximal disjoint subset of the given cliques in
// ascending clique-score order — Algorithm 2 applied to a candidate set
// (Algorithm 4 line 4). Node scores are computed locally over the set
// (the number of given cliques containing each node), which preserves the
// minimum-conflict-first heuristic without a global recount. Score ties
// break by member list, never by input position: callers pass an owner's
// candidates in candidate-id order, and those ids depend on the order the
// index happened to create its entries (a checkpoint-loaded index numbers
// them afresh). Breaking ties by content makes every swap decision a
// function of the graph and S alone, so a loaded engine replays an update
// stream exactly as the live one does. The given cliques must be
// distinct. The returned cliques alias the input slices and the returned
// slice itself lives in sc; callers copy what they retain (installClique
// already does) and must consume the result before the next
// greedyDisjoint call on the same scratch.
//
// Candidate sets are tiny (a handful of k-sized cliques), so multiplicity
// counting runs over one sorted scratch slice and the used-node set is a
// linearly scanned slice — the map-based version spent more time hashing
// than selecting on churn profiles, and with every buffer drawn from sc
// the common no-swap-possible queue pop allocates nothing.
func greedyDisjoint(sc *enumScratch, cliques [][]int32) [][]int32 {
	if len(cliques) == 0 {
		return nil
	}
	all := sc.gdNodes[:0]
	for _, c := range cliques {
		all = append(all, c...)
	}
	slices.Sort(all)
	sc.gdNodes = all
	multiplicity := func(u int32) int64 {
		i := graph.LowerBound(all, u)
		j := i
		for j < len(all) && all[j] == u {
			j++
		}
		return int64(j - i)
	}
	entries := sc.gdEntries[:0]
	for i, c := range cliques {
		var s int64
		for _, u := range c {
			s += multiplicity(u)
		}
		entries = append(entries, gdEntry{idx: i, score: s})
	}
	sc.gdEntries = entries
	slices.SortFunc(entries, func(a, b gdEntry) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return slices.Compare(cliques[a.idx], cliques[b.idx])
	})
	used := all[:0]
	out := sc.gdOut[:0]
	for _, en := range entries {
		c := cliques[en.idx]
		ok := true
		for _, u := range c {
			if slices.Contains(used, u) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		used = append(used, c...)
		out = append(out, c)
	}
	sc.gdOut = out
	return out
}

// trySwap is Algorithm 4: pop cliques from the FIFO queue; for each, find a
// disjoint set S_dis among its candidates; when |S_dis| > 1 exchange the
// clique for S_dis (a strict gain), refresh the candidate sets the freed
// and consumed nodes affect, and enqueue any clique whose candidate set
// gained new members.
func (e *Engine) trySwap(q []int32) {
	if e.noSwaps {
		return
	}
	if e.batch != nil {
		// Batch mode: swap processing is deferred so it runs once, against
		// the fully rebuilt candidate index, when the batch finishes.
		e.batch.pending = append(e.batch.pending, q...)
		return
	}
	for len(q) > 0 {
		cid := q[0]
		q = q[1:]
		if _, ok := e.cliques[cid]; !ok {
			continue // removed by an earlier swap
		}
		own := e.candsByOwn[cid]
		if own == nil || own.size() < 2 {
			continue // |S_dis| > 1 is impossible
		}
		// Stage the member-list pointers in the engine scratch instead of
		// a fresh slice; queue pops that find nothing to swap are the
		// common case.
		lists := e.esc.swapLists[:0]
		for _, id := range own.ids() {
			lists = append(lists, e.cands[id].nodes)
		}
		e.esc.swapLists = lists
		sdis := greedyDisjoint(e.esc, lists)
		if len(sdis) <= 1 {
			continue
		}
		q = append(q, e.executeSwap(cid, sdis)...)
		e.stats.Swaps++
	}
}

// executeSwap removes the clique and installs the replacement set, then
// refreshes affected candidate owners. It returns the clique ids to enqueue
// for further swapping.
func (e *Engine) executeSwap(cid int32, sdis [][]int32) []int32 {
	members := e.removeCliqueFromS(cid)
	// Install every replacement before indexing any: a candidate rebuild
	// that runs against a half-applied S could "repair" an all-free clique
	// that overlaps a replacement not yet installed.
	newIDs := make([]int32, 0, len(sdis))
	consumed := make([]int32, 0, len(sdis)*len(members))
	for _, c := range sdis {
		newIDs = append(newIDs, e.installClique(c))
		consumed = append(consumed, c...)
	}
	for _, id := range newIDs {
		e.indexClique(id)
	}
	// Members of the removed clique that no replacement consumed are free
	// now; owners adjacent to them may gain candidates.
	var freed []int32
	for _, u := range members {
		if !slices.Contains(consumed, u) {
			freed = append(freed, u)
		}
	}
	var push []int32
	for _, owner := range e.ownersAdjacentTo(freed) {
		if e.refreshOwner(owner) && e.numCandidatesOfOwner(owner) >= 2 {
			push = append(push, owner)
		}
	}
	for _, id := range newIDs {
		if e.numCandidatesOfOwner(id) >= 2 {
			push = append(push, id)
		}
	}
	return push
}
