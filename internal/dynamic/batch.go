package dynamic

import (
	"slices"

	"repro/internal/workload"
)

// Batched updates. Applying a workload op-by-op repeats the expensive part
// of Algorithms 6-7 — re-enumerating the candidate set of every S-clique
// adjacent to the touched region — once per update, even when consecutive
// updates land in the same neighbourhood. ApplyBatch instead runs the cheap
// structural part of every update eagerly (graph mutation, S maintenance,
// candidate drops, direct all-free installs) and defers the enumeration
//-heavy work: each owner whose candidate set is invalidated is marked
// dirty and rebuilt exactly once when the batch ends, with the independent
// per-owner rebuilds running concurrently on the worker pool. Swap
// processing (Algorithm 4) is likewise deferred so it runs once against
// the fully rebuilt index.
//
// The result is deterministic for any worker count: the parallel phase only
// computes per-owner candidate lists (a pure function of graph, S and free
// status), which are installed serially in ascending owner order.

// batchState accumulates the deferred work of an ApplyBatch in progress.
type batchState struct {
	// dirty holds owners whose candidate sets must be rebuilt at the end.
	dirty map[int32]bool
	// pending holds owners queued for TrySwap once the index is rebuilt.
	pending []int32
	// touched holds nodes freed during the batch. Any all-free k-clique
	// that a deferred rebuild would have repaired contains at least one of
	// them (deletions never create cliques, and insertions install their
	// all-free cliques eagerly), so sweeping these nodes restores
	// maximality before the rebuilds run.
	touched map[int32]bool
}

// ApplyBatch applies a stream of edge updates as one unit and returns how
// many of them changed the graph (an insert of an existing edge or a
// delete of a missing one counts as unchanged, exactly as InsertEdge /
// DeleteEdge report). The maintained set ends maximal and every index
// invariant holds on return, but intermediate states are internal —
// callers observing the engine mid-batch is not supported.
//
// Updates whose neighbourhoods do not interact are independent: their
// deferred rebuilds touch disjoint owners and run concurrently. Updates
// that do interact coalesce instead — an owner invalidated by twenty
// updates is re-enumerated once, not twenty times.
func (e *Engine) ApplyBatch(ops []workload.Op) int {
	if len(ops) == 0 {
		return 0
	}
	e.renumberCandidates()
	if e.batch != nil {
		// Re-entrant call (programming error); degrade to serial safety.
		applied := 0
		for _, op := range ops {
			if e.applyOne(op) {
				applied++
			}
		}
		return applied
	}
	e.batch = &batchState{
		dirty:   make(map[int32]bool),
		touched: make(map[int32]bool),
	}
	applied := 0
	for _, op := range ops {
		if e.applyOne(op) {
			applied++
		}
	}
	b := e.batch
	e.batch = nil
	e.stats.Batches++
	e.stats.BatchedOps += len(ops)

	// Phase 1 — maximality sweep (serial, eager): restore invariant 2 so
	// the parallel rebuilds below observe a maximal S. Cliques the sweep
	// installs join the swap queue, exactly as serially repacked cliques
	// would via dissolveAndRepack.
	swept := e.sweepTouched(b.touched)

	// Phase 2 — rebuild every dirty owner still in S: enumerate all owners
	// concurrently (read-only), then install serially in ascending id
	// order so candidate ids and stats stay deterministic.
	owners := make([]int32, 0, len(b.dirty))
	for id := range b.dirty {
		if _, ok := e.cliques[id]; ok {
			owners = append(owners, id)
		}
	}
	slices.Sort(owners)
	keptL, freshL, allFree := e.collectCandidates(owners)
	queue := append([]int32(nil), b.pending...)
	for _, id := range swept {
		if e.numCandidatesOfOwner(id) >= 2 {
			queue = append(queue, id)
		}
	}
	degraded := false
	for i, id := range owners {
		gained := false
		switch {
		case len(allFree[i]) > 0:
			// The sweep guarantees no all-free clique survives; if one
			// slipped through (it cannot, see batchState.touched), repair
			// through the serial path, which installs and re-enumerates.
			e.rebuildCandidates(id)
			queue = append(queue, id)
			degraded = true
			continue
		case degraded:
			// A repair changed S after the parallel enumeration ran, so
			// the precomputed kept ids and fresh lists may be stale;
			// re-enumerate this owner serially instead.
			gained = e.rebuildCandidates(id)
		default:
			// Differential install, mirroring rebuildCandidates:
			// candidates that survived the batch stay in place (their ids
			// were collected during the read-only parallel phase, no
			// copies made), only the stale remainder is dropped and the
			// fresh ones indexed.
			kept := append(e.esc.keep[:0], keptL[i]...)
			for _, c := range freshL[i] {
				cid, added := e.ensureCandidate(c, id)
				kept = append(kept, cid)
				gained = gained || added
			}
			slices.Sort(kept)
			e.esc.keep = kept
			e.dropStaleCandidates(id, kept)
		}
		// Swap eligibility follows the serial path's rule: only owners
		// whose candidate set gained a member are worth a TrySwap pass
		// (Algorithm 4 enqueues on gain). Before the differential rebuild
		// the batch path could not tell and had to enqueue every owner
		// with two or more candidates, paying a greedyDisjoint run each.
		if gained && e.numCandidatesOfOwner(id) >= 2 {
			queue = append(queue, id)
		}
	}

	// Phase 3 — deferred swap processing on the fresh index, in ascending
	// owner order with duplicates removed.
	if len(queue) > 0 && !e.noSwaps {
		slices.Sort(queue)
		dedup := queue[:0]
		for _, id := range queue {
			if _, ok := e.cliques[id]; !ok {
				continue
			}
			if len(dedup) > 0 && dedup[len(dedup)-1] == id {
				continue
			}
			dedup = append(dedup, id)
		}
		if len(dedup) > 0 {
			e.trySwap(dedup)
		}
	}
	// Match the single-op entry points: a batch of pure no-ops changed
	// neither the graph nor S, so it publishes no phantom version.
	if applied > 0 {
		e.publish()
	}
	return applied
}

// applyOne dispatches a single workload op through the public update entry
// points (which honour batch mode via the engine hooks).
func (e *Engine) applyOne(op workload.Op) bool {
	if op.Insert {
		return e.InsertEdge(op.U, op.V)
	}
	return e.DeleteEdge(op.U, op.V)
}

// sweepTouched restores maximality after the eager phase of a batch: every
// all-free k-clique at this point contains at least one touched node, so
// scanning the free touched nodes in ascending order and installing the
// first clique found through each one (repeatedly, until none remains)
// re-establishes invariant 2. Installations run through addCliqueToS with
// batching off, so their own candidate sets are indexed eagerly; the ids
// of the installed cliques are returned for swap enqueueing.
func (e *Engine) sweepTouched(touched map[int32]bool) []int32 {
	if len(touched) == 0 {
		return nil
	}
	nodes := make([]int32, 0, len(touched))
	for u := range touched {
		nodes = append(nodes, u)
	}
	slices.Sort(nodes)
	var installed []int32
	var B []int32
	for _, u := range nodes {
		for e.nodeClique[u] == free {
			B = append(B[:0], u)
			for _, w := range e.g.Neighbors(u) {
				if e.nodeClique[w] == free {
					B = append(B, w)
				}
			}
			if len(B) < e.k {
				break
			}
			var found []int32
			e.forEachCliqueAmong(e.esc, B, func(c []int32) bool {
				for _, x := range c {
					if x == u {
						found = append([]int32(nil), c...)
						return false
					}
				}
				return true
			})
			if found == nil {
				break
			}
			installed = append(installed, e.addCliqueToS(found))
		}
	}
	return installed
}
