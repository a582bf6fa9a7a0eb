package dynamic

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// sameCandidateIndex requires both indexes to hold the same candidates:
// equal sets of (owner, members) pairs. Candidate ids are internal — a
// loaded index numbers its entries in Algorithm-5 order, a live one in
// creation order — so they are not compared.
func sameCandidateIndex(t *testing.T, a, b *Engine) {
	t.Helper()
	content := func(e *Engine) map[string]int32 {
		m := make(map[string]int32, len(e.cands))
		for _, c := range e.cands {
			m[fmt.Sprint(c.nodes)] = c.owner
		}
		return m
	}
	ca, cb := content(a), content(b)
	if len(ca) != len(cb) {
		t.Fatalf("candidate indexes hold %d vs %d candidates", len(ca), len(cb))
	}
	for nodes, owner := range ca {
		if other, ok := cb[nodes]; !ok || other != owner {
			t.Fatalf("candidate %s: owner %d vs %d (present %v)", nodes, owner, other, ok)
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
	if err := e.Verify(); err != nil {
		t.Fatalf("checkpointed engine: %v", err)
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

// TestCheckpointGraphSectionStreamed: WriteCheckpoint encodes the graph
// straight from the dynamic rows, and those bytes must be exactly
// graph.WriteBinary of a CSR snapshot, with the header's length prefix
// their size — on a churned graph whose first, last and some middle
// nodes are isolated.
func TestCheckpointGraphSectionStreamed(t *testing.T) {
	e := newCheckpointEngine(t, 41)
	churn(e, rand.New(rand.NewSource(43)), 300)
	n := int32(e.g.N())
	var isolate []workload.Op
	for _, u := range []int32{0, 1, n / 2, n - 1} {
		for _, v := range e.g.Neighbors(u) {
			isolate = append(isolate, workload.Op{U: u, V: v})
		}
	}
	e.ApplyBatch(isolate)
	if e.g.Degree(0) != 0 || e.g.Degree(n-1) != 0 {
		t.Fatal("isolation batch left edges behind")
	}
	var want bytes.Buffer
	if err := graph.WriteBinary(&want, e.g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := e.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	const hdr = 8 + 5*8 // magic + five header fields
	if size := binary.LittleEndian.Uint64(ckpt.Bytes()[hdr-8:]); size != uint64(want.Len()) {
		t.Fatalf("header says %d graph bytes, graph.WriteBinary wrote %d", size, want.Len())
	}
	if section := ckpt.Bytes()[hdr : hdr+want.Len()]; !bytes.Equal(section, want.Bytes()) {
		t.Fatal("checkpoint graph section differs from graph.WriteBinary of the snapshot")
	}
}

// TestCheckpointReplayDeterminism is the guarantee recovery rests on:
// after a checkpoint, the live engine and an engine loaded from it stay
// byte-identical under the same update stream, batch for batch.
func TestCheckpointReplayDeterminism(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := newCheckpointEngine(t, 11+seed)
		rng := rand.New(rand.NewSource(17 + seed))
		churn(e, rng, 150)

		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
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

// TestCheckpointReplayWithoutCanonicalization checks the determinism
// contract where it can break: swap tie-breaking. The live engine keeps
// the candidate ids its history assigned, the loaded one gets fresh
// Algorithm-5 ids, and nothing reconciles them. Both must still take the
// same decisions under 200 further batches (a quarter of them applied
// op by op through the non-batch update path), compared after every
// batch. Breaking ties by candidate id instead of member content makes
// several seeds diverge here.
func TestCheckpointReplayWithoutCanonicalization(t *testing.T) {
	const seeds, batches = 20, 200
	for seed := int64(0); seed < seeds; seed++ {
		e := newCheckpointEngine(t, 100+seed)
		rng := rand.New(rand.NewSource(200 + seed))
		churn(e, rng, 300)

		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := LoadCheckpoint(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < batches; round++ {
			batch := randomBatch(e, rng, 1+rng.Intn(12))
			if rng.Intn(4) == 0 {
				for _, op := range batch {
					if e.applyOne(op) != r.applyOne(op) {
						t.Fatalf("seed %d round %d: op %v applied differently", seed, round, op)
					}
				}
			} else if ca, cb := e.ApplyBatch(batch), r.ApplyBatch(batch); ca != cb {
				t.Fatalf("seed %d round %d: applied %d vs %d", seed, round, ca, cb)
			}
			if e.nextClique != r.nextClique {
				t.Fatalf("seed %d round %d: nextClique %d vs %d", seed, round, e.nextClique, r.nextClique)
			}
			sa, sb := e.Snapshot(), r.Snapshot()
			if sa.Version() != sb.Version() {
				t.Fatalf("seed %d round %d: version %d vs %d", seed, round, sa.Version(), sb.Version())
			}
			if !reflect.DeepEqual(sa.Cliques(), sb.Cliques()) {
				t.Fatalf("seed %d round %d: clique lists differ", seed, round)
			}
		}
		// Vacuity guard: the replay must have taken swap decisions, or
		// the tie-break it exists to pin down was never exercised.
		if r.Stats().Swaps == 0 {
			t.Fatalf("seed %d: replay executed no swaps", seed)
		}
		sameEngineState(t, e, r)
		sameCandidateIndex(t, e, r)
		if err := r.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCheckpointReplayAcrossCandidateRenumbering: once candidate-id
// assignment passes candRenumberAt, the next update renumbers the whole
// index. The renumbering must keep every index invariant and change no
// decision: a live engine whose id counter is pushed to just short of
// the mark and an engine loaded from its checkpoint (ids far below it)
// stay identical through the updates that cross it, on both the batch
// and the op-by-op path.
func TestCheckpointReplayAcrossCandidateRenumbering(t *testing.T) {
	e := newCheckpointEngine(t, 7)
	rng := rand.New(rand.NewSource(8))
	churn(e, rng, 200)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.nextCand = candRenumberAt - 3
	renumbered := 0
	for round := 0; round < 60; round++ {
		before := e.nextCand
		batch := randomBatch(e, rng, 1+rng.Intn(8))
		if round%2 == 0 {
			for _, op := range batch {
				if e.applyOne(op) != r.applyOne(op) {
					t.Fatalf("round %d: op %v applied differently", round, op)
				}
			}
		} else if ca, cb := e.ApplyBatch(batch), r.ApplyBatch(batch); ca != cb {
			t.Fatalf("round %d: applied %d vs %d", round, ca, cb)
		}
		if e.nextCand < before {
			renumbered++
		}
		if e.nextClique != r.nextClique || e.Snapshot().Version() != r.Snapshot().Version() ||
			!reflect.DeepEqual(e.Snapshot().Cliques(), r.Snapshot().Cliques()) {
			t.Fatalf("round %d: live and loaded engines differ", round)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if renumbered == 0 {
		t.Fatal("the live engine never renumbered its candidate ids")
	}
	if e.nextCand >= candRenumberAt {
		t.Fatalf("next candidate id %d still past the mark", e.nextCand)
	}
	sameEngineState(t, e, r)
	sameCandidateIndex(t, e, r)
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
