package dynamic

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// churn applies n random single ops to the engine, mirroring them into a
// parallel op log so tests can replay the same stream elsewhere.
func churn(e *Engine, rng *rand.Rand, n int) []workload.Op {
	edges := e.g.Snapshot().EdgeList()
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		var op workload.Op
		if rng.Intn(2) == 0 && len(edges) > 0 {
			ed := edges[rng.Intn(len(edges))]
			op = workload.Op{Insert: false, U: ed[0], V: ed[1]}
		} else {
			u := int32(rng.Intn(e.g.N()))
			v := int32(rng.Intn(e.g.N()))
			if u == v {
				continue
			}
			op = workload.Op{Insert: true, U: u, V: v}
		}
		e.ApplyBatch([]workload.Op{op})
		ops = append(ops, op)
	}
	return ops
}

func sameEngineState(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.k != b.k || a.nextClique != b.nextClique {
		t.Fatalf("k/nextClique mismatch: (%d,%d) vs (%d,%d)", a.k, a.nextClique, b.k, b.nextClique)
	}
	if !reflect.DeepEqual(a.cliques, b.cliques) {
		t.Fatalf("clique sets differ: %d vs %d cliques", len(a.cliques), len(b.cliques))
	}
	if !reflect.DeepEqual(a.nodeClique, b.nodeClique) {
		t.Fatal("membership arrays differ")
	}
	if a.g.N() != b.g.N() || a.g.M() != b.g.M() {
		t.Fatalf("graphs differ: n=%d/%d m=%d/%d", a.g.N(), b.g.N(), a.g.M(), b.g.M())
	}
	for u := int32(0); int(u) < a.g.N(); u++ {
		if !reflect.DeepEqual(a.g.Neighbors(u), b.g.Neighbors(u)) &&
			(len(a.g.Neighbors(u)) != 0 || len(b.g.Neighbors(u)) != 0) {
			t.Fatalf("adjacency of %d differs", u)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Version() != sb.Version() {
		t.Fatalf("snapshot versions differ: %d vs %d", sa.Version(), sb.Version())
	}
	if !reflect.DeepEqual(sa.Cliques(), sb.Cliques()) {
		t.Fatal("published clique lists differ")
	}
}

// sameCandidateIndex requires bit-for-bit identical candidate indexes —
// the property CanonicalizeIndex buys at each checkpoint boundary.
func sameCandidateIndex(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.nextCand != b.nextCand || len(a.cands) != len(b.cands) {
		t.Fatalf("candidate allocators differ: next %d/%d size %d/%d",
			a.nextCand, b.nextCand, len(a.cands), len(b.cands))
	}
	for id, ca := range a.cands {
		cb, ok := b.cands[id]
		if !ok {
			t.Fatalf("candidate %d missing from second index", id)
		}
		if ca.owner != cb.owner || !reflect.DeepEqual(ca.nodes, cb.nodes) {
			t.Fatalf("candidate %d differs: (%v own %d) vs (%v own %d)",
				id, ca.nodes, ca.owner, cb.nodes, cb.owner)
		}
	}
}

func newCheckpointEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	g := gen.CommunitySocial(250, 8, 0.3, 700, seed)
	e, err := New(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCheckpointRoundTrip(t *testing.T) {
	e := newCheckpointEngine(t, 3)
	rng := rand.New(rand.NewSource(5))
	churn(e, rng, 200)

	var buf, again bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("WriteCheckpoint is not byte-deterministic")
	}
	e.CanonicalizeIndex()
	if err := e.Verify(); err != nil {
		t.Fatalf("canonicalized engine: %v", err)
	}
	r, err := LoadCheckpoint(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("loaded engine: %v", err)
	}
	sameEngineState(t, e, r)
	sameCandidateIndex(t, e, r)
}

// TestCheckpointReplayDeterminism is the guarantee recovery rests on:
// after checkpoint + canonicalize, the live engine and an engine loaded
// from the checkpoint stay byte-identical under the same update stream,
// batch for batch.
func TestCheckpointReplayDeterminism(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := newCheckpointEngine(t, 11+seed)
		rng := rand.New(rand.NewSource(17 + seed))
		churn(e, rng, 150)

		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		e.CanonicalizeIndex()
		r, err := LoadCheckpoint(&buf, 2)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 30; round++ {
			batch := randomBatch(e, rng, 1+rng.Intn(8))
			ca, cb := e.ApplyBatch(batch), r.ApplyBatch(batch)
			if ca != cb {
				t.Fatalf("seed %d round %d: applied %d vs %d", seed, round, ca, cb)
			}
			sameEngineState(t, e, r)
		}
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		sameCandidateIndex(t, e, r)
	}
}

// randomBatch builds a batch of random ops against the engine's current
// graph without applying it.
func randomBatch(e *Engine, rng *rand.Rand, n int) []workload.Op {
	edges := e.g.Snapshot().EdgeList()
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 && len(edges) > 0 {
			ed := edges[rng.Intn(len(edges))]
			ops = append(ops, workload.Op{Insert: false, U: ed[0], V: ed[1]})
			continue
		}
		u := int32(rng.Intn(e.g.N()))
		v := int32(rng.Intn(e.g.N()))
		if u != v {
			ops = append(ops, workload.Op{Insert: true, U: u, V: v})
		}
	}
	return ops
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	e := newCheckpointEngine(t, 29)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// k = 2^62 over |S| = 2 overflows |S|*k to a negative number, which
	// must not slip past the size check into a k-member allocation.
	b := graph.NewBuilder(6)
	for _, ed := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(ed[0], ed[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	two, err := New(g, 3, nil)
	if err != nil || two.Size() != 2 {
		t.Fatalf("two-triangle engine: |S|=%d, %v", two.Size(), err)
	}
	var small bytes.Buffer
	if err := two.WriteCheckpoint(&small); err != nil {
		t.Fatal(err)
	}
	hostile := small.Bytes()
	binary.LittleEndian.PutUint64(hostile[8:], 1<<62)
	if _, err := LoadCheckpoint(bytes.NewReader(hostile), 0); err == nil {
		t.Fatal("checkpoint with k=2^62 must not load")
	}
	if _, err := LoadCheckpoint(bytes.NewReader(full[:len(full)/2]), 0); err == nil {
		t.Fatal("truncated checkpoint must not load")
	}
	bad := append([]byte(nil), full...)
	bad[3] ^= 0xff
	if _, err := LoadCheckpoint(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad magic must not load")
	}
	bad = append([]byte(nil), full...)
	// Last clique member becomes an out-of-range id.
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], 0x7fffffff)
	if _, err := LoadCheckpoint(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("corrupted clique record must not load")
	}
}

// TestSaveDeterministic: the checkpoint bytes are a function of the graph
// and S alone. Two engines built the same way write the same bytes, and an
// engine loaded from a checkpoint writes that checkpoint back unchanged.
func TestSaveDeterministic(t *testing.T) {
	var a, b, again bytes.Buffer
	if err := newCheckpointEngine(t, 31).WriteCheckpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := newCheckpointEngine(t, 31).WriteCheckpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("engines built alike wrote different checkpoints")
	}
	r, err := LoadCheckpoint(bytes.NewReader(a.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), again.Bytes()) {
		t.Fatal("a loaded engine does not write its checkpoint back unchanged")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "short", "NOTMAGIC________________", string(checkpointMagic[:]) + "truncated-header"} {
		if _, err := LoadCheckpoint(strings.NewReader(in), 0); err == nil {
			t.Errorf("garbage %q loaded", in)
		}
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := newCheckpointEngine(t, 37).WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 1 // k, the first header field after the magic
	if _, err := LoadCheckpoint(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("header with k=1 must not load")
	}
}
