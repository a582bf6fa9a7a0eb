package dkclique

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	g, err := FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || g.M() != 6 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 {
		t.Fatal("Degree wrong")
	}
	if nb := g.Neighbors(4); len(nb) != 2 {
		t.Fatal("Neighbors wrong")
	}
	count := 0
	g.Edges(func(u, v int32) bool { count++; return true })
	if count != 6 {
		t.Fatal("Edges visit count wrong")
	}

	res, err := Find(g, Options{K: 3, Algorithm: LP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("|S| = %d, want 2", res.Size())
	}
	if err := Verify(g, 3, res.Cliques); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(g, 3, res.Cliques) {
		t.Fatal("should be maximal")
	}
}

func TestPublicBuilderAndIO(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 3 {
		t.Fatalf("round trip M = %d", g2.M())
	}
	if _, err := Read(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("expected parse error")
	}
	// Binary round trip through the public API.
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() != g.M() || !g3.HasEdge(0, 2) {
		t.Fatal("binary round trip failed")
	}
	if _, err := ReadBinary(strings.NewReader("garbage")); err == nil {
		t.Fatal("expected binary parse error")
	}
}

func TestPublicGenerators(t *testing.T) {
	for name, spec := range map[string]GenSpec{
		"ws":      WattsStrogatz(200, 6, 0.1, 1),
		"er":      ErdosRenyi(100, 300, 2),
		"ba":      BarabasiAlbert(150, 3, 3),
		"caveman": RelaxedCaveman(20, 5, 0.1, 4),
		"planted": Planted(5, 4, 10, 5),
		"sbm":     StochasticBlock(5, 10, 0.7, 0.05, 7),
		"social":  CommunitySocial(300, 6, 0.3, 300, 6),
	} {
		g, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
}

func TestPublicDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 10 {
		t.Fatalf("DatasetNames = %v", names)
	}
	g, err := LoadDataset("FTB")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() == 0 {
		t.Fatal("FTB empty")
	}
	if _, err := LoadDataset("NOPE"); err == nil {
		t.Fatal("expected unknown dataset error")
	}
}

func TestPublicAlgorithmsAgree(t *testing.T) {
	g, err := Generate(Planted(6, 3, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{HG, GC, L, LP, OPT} {
		res, err := Find(g, Options{K: 3, Algorithm: alg, Budget: time.Minute})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Size() != 6 {
			t.Fatalf("%v: size %d, want 6", alg, res.Size())
		}
	}
	if _, err := ParseAlgorithm("LP"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAlgorithm("xx"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPublicDynamic(t *testing.T) {
	g, err := Generate(CommunitySocial(600, 6, 0.3, 600, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Find(g, Options{K: 3, Algorithm: LP})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamic(g, 3, res.Cliques)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Size() != res.Size() || dyn.K() != 3 {
		t.Fatal("seeding mismatch")
	}
	if dyn.Stats().IndexBuild <= 0 {
		t.Error("index build time not recorded")
	}
	before := dyn.Size()
	ops := 0
	g.Edges(func(u, v int32) bool {
		dyn.DeleteEdge(u, v)
		ops++
		return ops < 50
	})
	if dyn.Size() > before {
		t.Error("deletions cannot grow S")
	}
	snap := dyn.Snapshot()
	if snap.M() != g.M()-50 {
		t.Fatalf("snapshot M = %d, want %d", snap.M(), g.M()-50)
	}
	if err := Verify(snap, 3, dyn.Result()); err != nil {
		t.Fatal(err)
	}
	// Free / candidate accessors behave.
	freeSeen := false
	for u := 0; u < snap.N(); u++ {
		if dyn.IsFree(int32(u)) {
			freeSeen = true
			break
		}
	}
	_ = freeSeen // some graphs may cover every node; accessor just must not panic
	_ = dyn.NumCandidates()
}

// TestPublicDynamicSaveLoad: a maintainer restored by LoadDynamic from
// Save holds the same graph, result set and version, and keeps
// maintaining a valid maximal set.
func TestPublicDynamicSaveLoad(t *testing.T) {
	g, err := Generate(CommunitySocial(400, 6, 0.3, 400, 12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Find(g, Options{K: 3, Algorithm: LP})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamic(g, 3, res.Cliques)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Update
	g.Edges(func(u, v int32) bool {
		ops = append(ops, Update{Insert: false, U: u, V: v})
		return len(ops) < 30
	})
	dyn.ApplyBatch(ops)

	var buf bytes.Buffer
	if err := dyn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDynamic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != dyn.K() || got.Snapshot().N() != dyn.Snapshot().N() || got.Snapshot().M() != dyn.Snapshot().M() {
		t.Fatalf("restored k=%d n=%d m=%d, want k=%d n=%d m=%d", got.K(), got.Snapshot().N(), got.Snapshot().M(),
			dyn.K(), dyn.Snapshot().N(), dyn.Snapshot().M())
	}
	if gv, wv := got.ResultSnapshot().Version(), dyn.ResultSnapshot().Version(); gv != wv {
		t.Fatalf("restored version %d, want %d", gv, wv)
	}
	if !reflect.DeepEqual(got.Result(), dyn.Result()) {
		t.Fatal("restored result set differs from the saved one")
	}
	if got.NumCandidates() != dyn.NumCandidates() {
		t.Fatalf("restored index holds %d candidates, want %d", got.NumCandidates(), dyn.NumCandidates())
	}
	for _, op := range ops[:10] {
		got.InsertEdge(op.U, op.V)
	}
	if err := Verify(got.Snapshot(), 3, got.Result()); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(got.Snapshot(), 3, got.Result()) {
		t.Fatal("restored maintainer lost maximality after updates")
	}
	if _, err := LoadDynamic(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted by LoadDynamic")
	}
}

func TestPublicApplyBatch(t *testing.T) {
	g, err := Generate(CommunitySocial(600, 6, 0.3, 600, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Find(g, Options{K: 3, Algorithm: LP, StrictTies: true})
	if err != nil {
		t.Fatal(err)
	}
	// Build a mixed batch: delete 40 existing edges, then re-insert half.
	var ops []Update
	g.Edges(func(u, v int32) bool {
		ops = append(ops, Update{Insert: false, U: u, V: v})
		return len(ops) < 40
	})
	for _, op := range ops[:20] {
		ops = append(ops, Update{Insert: true, U: op.U, V: op.V})
	}

	// Worker-count invariance end-to-end through the public API.
	var want [][]int32
	for _, workers := range []int{1, 4} {
		dyn, err := NewDynamicWorkers(g, 3, res.Cliques, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := dyn.ApplyBatch(ops); got != len(ops) {
			t.Fatalf("workers=%d: applied %d of %d ops", workers, got, len(ops))
		}
		if err := Verify(dyn.Snapshot(), 3, dyn.Result()); err != nil {
			t.Fatal(err)
		}
		if !IsMaximal(dyn.Snapshot(), 3, dyn.Result()) {
			t.Fatalf("workers=%d: batched result not maximal", workers)
		}
		if st := dyn.Stats(); st.Batches != 1 || st.BatchedOps != len(ops) {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		if want == nil {
			want = dyn.Result()
			continue
		}
		got := dyn.Result()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: |S| = %d, want %d", workers, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: result diverges at clique %d", workers, i)
				}
			}
		}
	}
}

func TestDynamicValidation(t *testing.T) {
	g, _ := FromEdges(4, [][2]int32{{0, 1}})
	if _, err := NewDynamic(g, 2, nil); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := NewDynamic(g, 3, [][]int32{{0, 1, 2}}); err == nil {
		t.Fatal("non-clique initial set accepted")
	}
}
