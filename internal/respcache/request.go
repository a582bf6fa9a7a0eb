package respcache

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/dynamic"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The transport-neutral request semantics. HTTP (internal/httpapi) and
// the TCP frame server (internal/framesrv) both answer lookups and stats
// through these functions, so the two transports agree on validation,
// limits, error messages and response content by construction; each
// keeps only its own parsing and rendering.

// Error is a request the shared layer refuses, with the HTTP-equivalent
// status both transports answer it with (the HTTP status line, or the
// status field of a wire error frame).
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Status returns the status err is answered with: the Code of an *Error,
// 500 for anything else.
func Status(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return http.StatusInternalServerError
}

// CheckNode refuses a node id outside snap's graph; CliqueOf would
// answer such an id with a misleading "uncovered".
func CheckNode(snap *dynamic.Snapshot, u int32) error {
	if u < 0 || int(u) >= snap.N() {
		return &Error{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("node %d out of range for %d nodes", u, snap.N())}
	}
	return nil
}

// Batch resolves a batched lookup against one snapshot: one consistent
// version for every queried node, each distinct clique listed once, and
// one lookup per queried node pointing into cliques by index (-1 for an
// uncovered node). Disjointness makes a clique's smallest member a
// unique key, so the dedup needs no digesting. An empty batch, more
// than maxOps nodes, or an out-of-range node is refused.
func Batch(snap *dynamic.Snapshot, queried []int32, maxOps int) (cliques [][]int32, lookups []wire.Lookup, err error) {
	if len(queried) == 0 {
		return nil, nil, &Error{Code: http.StatusBadRequest, Msg: "empty batch"}
	}
	if len(queried) > maxOps {
		return nil, nil, &Error{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("more than %d nodes in one batch", maxOps)}
	}
	var seen map[int32]int32 // smallest member -> index in cliques
	for _, u := range queried {
		if err := CheckNode(snap, u); err != nil {
			return nil, nil, err
		}
		idx := int32(-1)
		if c := snap.CliqueOf(u); c != nil {
			if seen == nil {
				seen = make(map[int32]int32)
			}
			var ok bool
			if idx, ok = seen[c[0]]; !ok {
				idx = int32(len(cliques))
				cliques = append(cliques, c)
				seen[c[0]] = idx
			}
		}
		lookups = append(lookups, wire.Lookup{Node: u, Clique: idx})
	}
	return cliques, lookups, nil
}

// Stats gathers the service counters st and the engine counters of
// snap into the one stats record both transports render: the binary
// stats frame as is, the JSON /stats body field by field.
func Stats(snap *dynamic.Snapshot, st serve.Stats) wire.Stats {
	es := snap.Stats()
	return wire.Stats{
		Size: uint64(snap.Size()), Nodes: uint64(snap.N()), Edges: uint64(snap.M()),
		Enqueued: st.Enqueued, Applied: st.Applied, Changed: st.Changed,
		Batches: st.Batches, Flushes: st.Flushes,
		Recovered: st.Recovered, Checkpoints: st.Checkpoints,
		WALBatches: st.WALBatches, WALBytes: st.WALBytes,
		Insertions: uint64(es.Insertions), Deletions: uint64(es.Deletions),
		Swaps:             uint64(es.Swaps),
		IndexBuildUS:      uint64(es.IndexBuild.Microseconds()),
		QueueDepth:        st.QueueDepth,
		SnapshotAge:       st.SnapshotAge,
		WALSyncs:          st.WALSyncs,
		GroupCommitOps:    st.GroupCommitOps,
		CheckpointStallNs: st.CheckpointStallNs,
	}
}
