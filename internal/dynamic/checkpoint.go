package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// Engine checkpoints. A checkpoint is the durable half of the serving
// layer's WAL + checkpoint protocol: it captures everything recovery needs
// to rebuild a byte-identical engine — the graph topology, the result set
// S *with its internal clique ids*, the id allocator position, and the
// published snapshot version — and deliberately omits everything that is a
// pure function of that state (the candidate index, rebuilt by Algorithm 5
// on load) or that is activity accounting (Stats). It is the engine's only
// persistence format: the public Dynamic.Save/LoadDynamic write and read
// it too.
//
// Checkpoints preserve identity: replaying the same update stream against
// a loaded checkpoint reproduces the exact clique ids, snapshot versions
// and swap decisions of the original engine. The loaded candidate index
// holds the same candidates as the live one under different internal ids
// (Algorithm-5 order instead of creation order), and that is harmless:
// greedyDisjoint, the one place swaps choose among an owner's candidates,
// breaks ties by member list, so no decision ever depends on a candidate
// id.
var checkpointMagic = [8]byte{'D', 'K', 'C', 'Q', 'C', 'K', 'P', '1'}

// WriteCheckpoint serialises the engine's durable state: header, graph
// (the binary CSR format of internal/graph, length-prefixed so the loader
// can hand ReadBinary a bounded reader), then S as (id, members) records
// in ascending id order. The graph is written straight from the dynamic
// rows; no CSR copy is built.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var version uint64
	if s := e.snap.Load(); s != nil {
		version = s.version
	}
	var hdr [8 + 5*8]byte
	copy(hdr[:], checkpointMagic[:])
	for i, v := range [...]int64{
		int64(e.k),
		int64(version),
		int64(e.nextClique),
		int64(len(e.orderIds)),
		e.g.BinarySize(),
	} {
		binary.LittleEndian.PutUint64(hdr[8+8*i:], uint64(v))
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := e.g.WriteBinary(bw); err != nil {
		return err
	}
	rec := make([]byte, 0, 4*(e.k+1))
	for i, id := range e.orderIds {
		rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(id))
		for _, u := range e.orderCliques[i] {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(u))
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCheckpoint rebuilds an engine from a WriteCheckpoint stream:
// restore the graph and S (with the persisted clique ids and allocator
// position), then reconstruct the candidate index with Algorithm 5. The
// loaded engine publishes its first snapshot at the persisted version, so
// readers of a recovered service observe a continuous version sequence.
// workers bounds the index-construction parallelism as in NewWorkers.
func LoadCheckpoint(r io.Reader, workers int) (*Engine, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dynamic: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("dynamic: not a dkclique checkpoint (magic %q)", magic)
	}
	var k, version, nextClique, ns, glen int64
	for _, p := range []*int64{&k, &version, &nextClique, &ns, &glen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint header: %w", err)
		}
	}
	if k < 3 || version < 1 || nextClique < 0 || ns < 0 || ns > nextClique || glen < 16 {
		return nil, fmt.Errorf("dynamic: corrupt checkpoint header (k=%d ver=%d next=%d |S|=%d glen=%d)",
			k, version, nextClique, ns, glen)
	}
	// ReadBinary buffers internally; the length prefix keeps it from
	// swallowing the clique records that follow the graph.
	g, err := graph.ReadBinary(io.LimitReader(br, glen))
	if err != nil {
		return nil, fmt.Errorf("dynamic: checkpoint graph: %w", err)
	}
	// Compared by division: a hostile k near 2^62 would overflow ns*k
	// past the check and into make([]int32, k) below.
	if n := int64(g.N()); k > n || ns > n/k {
		return nil, fmt.Errorf("dynamic: checkpoint holds %d cliques of size %d over %d nodes", ns, k, g.N())
	}
	e := newEngineShell(graph.DynamicFrom(g), int(k), workers)
	prev := int32(-1)
	for i := int64(0); i < ns; i++ {
		var id int32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint clique %d: %w", i, err)
		}
		members := make([]int32, k)
		if err := binary.Read(br, binary.LittleEndian, members); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint clique %d: %w", i, err)
		}
		if id <= prev || int64(id) >= nextClique {
			return nil, fmt.Errorf("dynamic: checkpoint clique ids not ascending below %d (got %d after %d)",
				nextClique, id, prev)
		}
		prev = id
		for _, u := range members {
			if u < 0 || int(u) >= g.N() {
				return nil, fmt.Errorf("dynamic: checkpoint clique %d holds out-of-range node %d", i, u)
			}
		}
		if !e.g.IsClique(members) {
			return nil, fmt.Errorf("dynamic: checkpoint members %v are not a clique", members)
		}
		for j, u := range members {
			if j > 0 && members[j-1] >= u {
				return nil, fmt.Errorf("dynamic: checkpoint clique %d members not sorted", i)
			}
			if e.nodeClique[u] != free {
				return nil, fmt.Errorf("dynamic: checkpoint node %d in two cliques", u)
			}
			e.nodeClique[u] = id
		}
		e.cliques[id] = members
		e.orderInstall(id, members)
	}
	e.nextClique = int32(nextClique)
	// S is maximal at every checkpoint boundary (engine invariant 2), so
	// this is a pure re-check; it repairs the set if a hand-edited file
	// slipped a non-maximal S through the validations above.
	e.completeMaximal(g)
	e.buildIndex()
	e.ver0 = uint64(version) - 1
	e.publish()
	return e, nil
}
