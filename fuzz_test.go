package dkclique

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/workload"
)

// FuzzReadEdgeList hardens the parser: arbitrary text must either parse
// into a consistent graph or fail cleanly, never panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% more\n3 4 0.5\n")
	f.Add("1000000 2000000\n")
	f.Add("a b\n")
	f.Add("")
	f.Add("0 0\n0 1\n0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		// Parsed graphs must be internally consistent.
		if g.N() < 0 || g.M() < 0 {
			t.Fatal("negative sizes")
		}
		g.Edges(func(u, v int32) bool {
			if u == v {
				t.Fatal("self-loop survived parsing")
			}
			if !g.HasEdge(v, u) {
				t.Fatal("asymmetric edge")
			}
			return true
		})
	})
}

// FuzzDynamicEngine drives the maintenance engine with arbitrary update
// bytes and checks full invariants at the end of every input.
func FuzzDynamicEngine(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 11, 12, 10, 11, 12})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 10
		g, err := FromEdges(n, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := NewDynamic(g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			u := int32(ops[i] % n)
			v := int32(ops[i+1] % n)
			if u == v {
				continue
			}
			if ops[i]&1 == 0 {
				dyn.InsertEdge(u, v)
			} else {
				dyn.DeleteEdge(u, v)
			}
		}
		// The maintained set must verify against the final topology.
		if err := Verify(dyn.Snapshot(), 3, dyn.Result()); err != nil {
			t.Fatal(err)
		}
		if !IsMaximal(dyn.Snapshot(), 3, dyn.Result()) {
			t.Fatal("maintained set not maximal")
		}
	})
}

// FuzzEngineBatchVerify drives the maintenance engine's batched update
// path with an arbitrary mixed insert/delete op stream, split into
// arbitrary batch sizes, and checks the full internal invariants
// (Engine.Verify: S disjoint and maximal, candidate index exactly
// Algorithm 5's) after every ApplyBatch — so the unified enumeration core
// behind forEachCliqueWithEdge / forEachCliqueAmong is fuzz-covered end
// to end, including the differential candidate rebuilds and the deferred
// swap processing. Before the batch the fuzzer picks, the engine is
// checkpointed and a second engine loaded from the image; from then on
// both apply every batch and must publish identical snapshots, although
// their candidate indexes number entries differently.
func FuzzEngineBatchVerify(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5}, uint8(2), uint8(1))
	f.Add([]byte{10, 11, 12, 10, 11, 12, 7, 8}, uint8(1), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(5), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, batchSize, ckptBatch uint8) {
		const n = 12
		g, err := graph.FromEdges(n, [][2]int32{
			{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}, {6, 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dynamic.New(g, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("fresh engine: %v", err)
		}
		size := int(batchSize%16) + 1
		ckptAt := int(ckptBatch % 16)
		var loaded *dynamic.Engine
		var ops []workload.Op
		batches := 0
		flush := func() {
			if len(ops) == 0 {
				return
			}
			if batches == ckptAt {
				var buf bytes.Buffer
				if err := eng.WriteCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if loaded, err = dynamic.LoadCheckpoint(&buf, 1); err != nil {
					t.Fatalf("load checkpoint: %v", err)
				}
			}
			batches++
			eng.ApplyBatch(ops)
			if err := eng.Verify(); err != nil {
				t.Fatalf("after batch: %v", err)
			}
			if loaded != nil {
				loaded.ApplyBatch(ops)
				sameSnapshot(t, loaded.Snapshot(), eng.Snapshot())
			}
			ops = ops[:0]
		}
		for i := 0; i+1 < len(raw); i += 2 {
			u := int32(raw[i] % n)
			v := int32(raw[i+1] % n)
			if u == v {
				continue
			}
			ops = append(ops, workload.Op{Insert: raw[i]&1 == 0, U: u, V: v})
			if len(ops) >= size {
				flush()
			}
		}
		flush()
		// The published snapshot must agree with the engine's final state.
		snap := eng.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatal(err)
		}
		if snap.Size() != eng.Size() {
			t.Fatalf("snapshot size %d != engine size %d", snap.Size(), eng.Size())
		}
	})
}

// sameSnapshot requires two published snapshots to agree on everything a
// reader can see except the activity counters: version, shape, the
// clique list and every node's membership.
func sameSnapshot(t *testing.T, got, want *dynamic.Snapshot) {
	t.Helper()
	if got.Version() != want.Version() || got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("snapshot (v%d n=%d m=%d), want (v%d n=%d m=%d)",
			got.Version(), got.N(), got.M(), want.Version(), want.N(), want.M())
	}
	if !reflect.DeepEqual(got.Cliques(), want.Cliques()) {
		t.Fatalf("v%d: clique lists differ: %v vs %v", want.Version(), got.Cliques(), want.Cliques())
	}
	for u := int32(0); int(u) < want.N(); u++ {
		if !slices.Equal(got.CliqueOf(u), want.CliqueOf(u)) {
			t.Fatalf("v%d: membership of node %d differs", want.Version(), u)
		}
	}
}

// FuzzFindOnRandomEdges feeds arbitrary edge bytes into the static solver.
func FuzzFindOnRandomEdges(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2})
	f.Add([]byte{5, 6, 6, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 12
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%n), int32(raw[i+1]%n))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{HG, LP} {
			res, err := Find(g, Options{K: 3, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, 3, res.Cliques); err != nil {
				t.Fatal(err)
			}
			if !IsMaximal(g, 3, res.Cliques) {
				t.Fatalf("%v: not maximal", alg)
			}
		}
	})
}
