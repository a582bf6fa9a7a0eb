package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkSnapshotRead measures the wait-free read path: parallel
// readers loading the snapshot and answering a point query. The busy
// variant keeps the single writer applying update batches concurrently,
// showing that writes do not slow readers down.
func BenchmarkSnapshotRead(b *testing.B) {
	g := gen.CommunitySocial(20000, 10, 0.2, 40000, 17)
	for _, busy := range []bool{false, true} {
		name := "idle-writer"
		if busy {
			name = "busy-writer"
		}
		b.Run(name, func(b *testing.B) {
			s := newService(b, g, Options{})
			defer s.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if busy {
				ops := workload.Mixed(g, 2000, 23).Stream
				go func() {
					for i := 0; ; i++ {
						batch := ops[(i*50)%len(ops) : (i*50)%len(ops)+50]
						if s.Enqueue(ctx, batch...) != nil {
							return
						}
					}
				}()
			}
			var cursor atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var sink int
				u := int32(cursor.Add(977) % int64(g.N()))
				for pb.Next() {
					snap := s.Snapshot()
					sink += snap.Size() + len(snap.CliqueOf(u))
					u = (u + 1) % int32(g.N())
				}
				_ = sink
			})
		})
	}
}

// BenchmarkServeMixed replays the closed-loop read/write client streams
// against a Service: every goroutine issues its next op as soon as the
// previous completes (reads answer from the snapshot, writes enqueue to
// the single writer). ns/op is per client operation.
func BenchmarkServeMixed(b *testing.B) {
	benchmarkServeMixed(b, false)
}

// BenchmarkServeMixedDurable is BenchmarkServeMixed with the write-ahead
// log on (fsync-off policy), isolating the WAL-append overhead on the
// write path. CheckpointEvery is pushed out of reach so the rows measure
// logging, not checkpoint rollovers.
func BenchmarkServeMixedDurable(b *testing.B) {
	benchmarkServeMixed(b, true)
}

func benchmarkServeMixed(b *testing.B, durable bool) {
	g := gen.CommunitySocial(20000, 10, 0.2, 40000, 17)
	for _, readFrac := range []float64{0.5, 0.9, 0.99} {
		b.Run(fmt.Sprintf("reads=%.0f%%", readFrac*100), func(b *testing.B) {
			var opt Options
			if durable {
				opt = Options{Dir: b.TempDir(), Fsync: wal.SyncNone, CheckpointEvery: 1 << 30}
			}
			runServeMixed(b, g, opt, readFrac)
		})
	}
}

func runServeMixed(b *testing.B, g *graph.Graph, opt Options, readFrac float64) {
	s := newService(b, g, opt)
	defer s.Close()
	ctx := context.Background()
	streams := workload.ReadWriteClients(g, 16, 4096, readFrac, 31)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ops := streams[int(next.Add(1))%len(streams)]
		i := 0
		var sink int
		for pb.Next() {
			op := ops[i%len(ops)]
			i++
			if op.Read {
				sink += len(s.CliqueOf(op.Node))
			} else if err := s.Enqueue(ctx, op.Update); err != nil {
				b.Error(err)
				return
			}
		}
		_ = sink
	})
	b.StopTimer()
	if err := s.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	if st := s.Stats(); st.WALSyncs > 0 {
		// Group-commit coalescing factor: how many durable ops each fsync
		// carried. The pipelined path's number grows with load; the serial
		// path's is pinned to one drain cycle.
		b.ReportMetric(float64(st.GroupCommitOps)/float64(st.WALSyncs), "ops/fsync")
	}
}

// BenchmarkServeMixedDurableSync is the fsync-bound row: write-ahead log
// with SyncEveryBatch, write-heavy mix, pipelined vs serial write path in
// one run (scripts/benchgate.sh --speedup gates the ratio in CI). The
// pipelined rows overlap ApplyBatch with the previous batch's fsync and
// coalesce fsyncs across drain cycles; ops/fsync reports the coalescing.
func BenchmarkServeMixedDurableSync(b *testing.B) {
	g := gen.CommunitySocial(20000, 10, 0.2, 40000, 17)
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"pipelined", false}, {"serial", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := Options{
				Dir: b.TempDir(), Fsync: wal.SyncEveryBatch,
				CheckpointEvery: 1 << 30, SerialDurability: mode.serial,
			}
			runServeMixed(b, g, opt, 0.5)
		})
	}
}

// BenchmarkCheckpointStall measures one checkpoint cycle per iteration:
// CheckpointEvery ops of write traffic plus the rollover they trigger.
// ns/op is the whole cycle; the stall-ns/ckpt metric isolates what the
// acceptance criterion cares about — how long the writer (and snapshot
// freshness) stalls per checkpoint. Serial pays the full image write +
// fsync + rename there; pipelined only the in-memory capture (plus any
// wait for an install still in flight). Neither path touches the live
// engine at the boundary: the capture is one serialization of the graph
// and S, streamed from the live structures. The graph is sized so that
// serialization — paid on the writer by *both* paths — does not drown
// the install cost this benchmark exists to compare, and so an install
// always completes within the next inter-checkpoint window (back-to-back
// checkpoints on a huge image would re-serialize the
// one-install-in-flight wait into the stall).
func BenchmarkCheckpointStall(b *testing.B) {
	g := gen.CommunitySocial(2000, 10, 0.2, 4000, 17)
	const every = 2048
	ops := workload.Mixed(g, every, 29).Stream
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"pipelined", false}, {"serial", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := Options{
				Dir: b.TempDir(), Fsync: wal.SyncNone,
				CheckpointEvery: every, SerialDurability: mode.serial,
			}
			s := newService(b, g, opt)
			defer s.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(ops); off += 512 {
					if err := s.Enqueue(ctx, ops[off:off+512]...); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Flush(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			if st.Checkpoints > 1 {
				// Exclude the initial store checkpoint: it happens before
				// traffic and never stalls the writer.
				b.ReportMetric(float64(st.CheckpointStallNs)/float64(st.Checkpoints-1), "stall-ns/ckpt")
			}
		})
	}
}
