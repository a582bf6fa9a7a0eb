package repl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/faultconn"
	"repro/internal/framesrv"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.CommunitySocial(400, 8, 0.3, 900, 42)
}

// newPrimaryService builds a serving service over the test graph; dir
// non-empty makes it durable.
func newPrimaryService(t testing.TB, g *graph.Graph, dir string) *serve.Service {
	t.Helper()
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(g, 3, res.Cliques, serve.Options{Dir: dir, Fsync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// startRepl attaches a Primary under epoch to svc and serves it (plus
// the normal frame endpoints) on a loopback listener.
func startRepl(t testing.TB, svc *serve.Service, epoch uint64, opt PrimaryOptions) (*Primary, string) {
	t.Helper()
	p, err := NewPrimary(context.Background(), svc, epoch, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	fs := framesrv.New(svc, framesrv.Options{Repl: p})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		fs.Shutdown(ctx)
	})
	return p, ln.Addr().String()
}

// churn applies batches of random updates through the primary, flushing
// each batch so it becomes its own ApplyBatch unit (and so its own
// stream frame), and returns the resulting version.
func churn(t testing.TB, svc *serve.Service, rng *rand.Rand, batches, perBatch int) uint64 {
	t.Helper()
	n := int32(svc.Snapshot().N())
	for b := 0; b < batches; b++ {
		ops := make([]workload.Op, perBatch)
		for i := range ops {
			u := rng.Int31n(n)
			v := rng.Int31n(n)
			for v == u {
				v = rng.Int31n(n)
			}
			ops[i] = workload.Op{Insert: rng.Intn(10) < 6, U: u, V: v}
		}
		if err := svc.Enqueue(context.Background(), ops...); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return svc.Snapshot().Version()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// snapFrame encodes a snapshot as its full binary frame — the
// byte-for-byte representation replicas must agree on.
func snapFrame(s *dynamic.Snapshot) []byte {
	return wire.AppendSnapshotFrame(nil, s.Version(), s.K(), s.N(), s.M(), s.Size(), s.Cliques(), true)
}

// captureImage grabs a checkpoint image at a writer barrier.
func captureImage(t testing.TB, svc *serve.Service) (uint64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var ver uint64
	err := svc.Barrier(context.Background(), func(cp serve.Checkpointer) error {
		var err error
		ver, err = cp.Checkpoint(&buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ver, buf.Bytes()
}

// newTestFollower builds a follower with test-friendly backoff; extra
// mutates the options before construction.
func newTestFollower(t testing.TB, addr string, extra func(*FollowerOptions)) *Follower {
	t.Helper()
	opt := FollowerOptions{
		Addr:       addr,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Logf:       t.Logf,
	}
	if extra != nil {
		extra(&opt)
	}
	f, err := NewFollower(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// runFollower drives f.Run until the test ends.
func runFollower(t testing.TB, f *Follower) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// TestReplicationConvergence streams live churn to a fresh follower and
// checks byte-for-byte snapshot equality at several synced points, plus
// checkpoint-image equality at a shared checkpoint boundary. A second, late
// follower must converge too — through a checkpoint install, because
// the small history limit has long trimmed the early batches.
func TestReplicationConvergence(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, "")
	_, addr := startRepl(t, svc, 1, PrimaryOptions{HistoryLimit: 256})
	rng := rand.New(rand.NewSource(7))

	f := newTestFollower(t, addr, nil)
	runFollower(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitInstalled(ctx); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		ver := churn(t, svc, rng, 30, 8)
		waitFor(t, 15*time.Second, fmt.Sprintf("follower to reach version %d", ver), func() bool {
			return f.Status().Version >= ver
		})
		want := snapFrame(svc.Snapshot())
		got := snapFrame(f.Service().Snapshot())
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: follower snapshot frame differs from primary at version %d", round, ver)
		}
	}

	// A late follower has no resumable position: it must be installed
	// from a capture and still converge exactly.
	late := newTestFollower(t, addr, nil)
	runFollower(t, late)
	ver := svc.Snapshot().Version()
	waitFor(t, 15*time.Second, "late follower to catch up", func() bool {
		return late.Status().Version >= ver
	})
	if st := late.Status(); st.Installs < 1 {
		t.Fatalf("late follower installs = %d, want >= 1", st.Installs)
	}
	if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(late.Service().Snapshot())) {
		t.Fatal("late follower snapshot frame differs from primary")
	}

	// Checkpoint images at a shared checkpoint boundary must match byte for
	// byte. The primary's capture ships a boundary marker; wait for the
	// followers to cross the boundary before imaging them.
	pver, pimg := captureImage(t, svc)
	waitFor(t, 10*time.Second, "followers to pass the checkpoint boundary", func() bool {
		return f.Status().StreamVersion >= pver && late.Status().StreamVersion >= pver
	})
	if fver, fimg := captureImage(t, f.Service()); fver != pver || !bytes.Equal(pimg, fimg) {
		t.Fatalf("follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			fver, len(fimg), pver, len(pimg))
	}
}

// TestFollowerResume breaks an established stream and checks the
// follower reconnects and resumes from its version — no second install.
func TestFollowerResume(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, "")
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})
	rng := rand.New(rand.NewSource(11))

	var current atomic.Pointer[net.Conn]
	f := newTestFollower(t, addr, func(o *FollowerOptions) {
		o.Dial = func(ctx context.Context, a string) (net.Conn, error) {
			d := net.Dialer{Timeout: time.Second}
			c, err := d.DialContext(ctx, "tcp", a)
			if err == nil {
				current.Store(&c)
			}
			return c, err
		}
	})
	runFollower(t, f)

	ver := churn(t, svc, rng, 20, 8)
	waitFor(t, 15*time.Second, "initial sync", func() bool { return f.Status().Version >= ver })

	// Tear the connection down under the follower.
	(*current.Load()).Close()
	ver = churn(t, svc, rng, 20, 8)
	waitFor(t, 15*time.Second, "post-reconnect sync", func() bool { return f.Status().Version >= ver })

	st := f.Status()
	if st.Installs != 1 {
		t.Fatalf("installs = %d after reconnect, want exactly 1 (resume, not re-install)", st.Installs)
	}
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
	if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(f.Service().Snapshot())) {
		t.Fatal("follower snapshot frame differs from primary after resume")
	}
}

// TestEpochFenceFollowerRefuses stages a deposed primary feeding a
// follower that has already accepted a higher epoch: the follower must
// refuse every lower-epoch frame before any state change. The fake
// primary speaks raw wire frames so it can violate the protocol the
// real Primary enforces on itself.
func TestEpochFenceFollowerRefuses(t *testing.T) {
	// A valid checkpoint image to make the refusal unambiguous: the
	// frames are well-formed, only their epoch is stale.
	g := testGraph(t)
	donor := newPrimaryService(t, g, "")
	iver, img := captureImage(t, donor)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Read the replicate handshake.
				buf := make([]byte, 0, 256)
				for {
					var one [256]byte
					n, err := conn.Read(one[:])
					if err != nil {
						served <- fmt.Errorf("reading handshake: %w", err)
						return
					}
					buf = append(buf, one[:n]...)
					if f, _, err := wire.DecodeRequest(buf); err == nil {
						if f.Type != wire.FrameReqReplicate {
							served <- fmt.Errorf("unexpected request type %d", f.Type)
							return
						}
						break
					}
				}
				// A well-formed install at the follower's epoch, then a
				// batch from a DEPOSED epoch 1. The follower must apply the
				// first and refuse the second without touching state.
				out := wire.AppendReplCheckpointFrame(nil, 2, iver, img)
				out = wire.AppendReplBatchFrame(out, 1, iver+1, []wire.EdgeOp{{Insert: true, U: 0, V: 1}})
				if _, err := conn.Write(out); err != nil {
					served <- fmt.Errorf("writing frames: %w", err)
					return
				}
				served <- nil
				// Hold the conn until the follower hangs up on the fenced
				// frame.
				var one [1]byte
				conn.Read(one[:])
			}(conn)
		}
	}()

	f := newTestFollower(t, ln.Addr().String(), nil)
	// The follower has already followed an epoch-2 primary.
	f.mu.Lock()
	f.epoch = 2
	f.mu.Unlock()
	runFollower(t, f)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "fence refusal", func() bool { return f.Status().Refusals >= 1 })

	st := f.Status()
	if st.Version != iver {
		t.Fatalf("follower version %d after fenced batch, want %d (no state change)", st.Version, iver)
	}
	if st.Epoch != 2 {
		t.Fatalf("follower epoch %d after fenced batch, want 2", st.Epoch)
	}
	if st.Installs != 1 {
		t.Fatalf("installs = %d, want 1 (the epoch-2 install only)", st.Installs)
	}
	if got := f.Service().Snapshot().Version(); got != iver {
		t.Fatalf("engine version %d after fenced batch, want %d", got, iver)
	}
}

// TestEpochFencePrimaryRefuses checks the symmetric fence: a primary
// refuses a follower that reports a higher epoch than its own.
func TestEpochFencePrimaryRefuses(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, "")
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := workload.NewFrameClient(conn)
	c.SetIOTimeout(5 * time.Second)
	if err := c.SendReplicate(2, 10, true); err != nil {
		t.Fatal(err)
	}
	_, err = c.Recv()
	if err == nil {
		t.Fatal("primary at epoch 1 served a follower claiming epoch 2")
	}
	if !strings.Contains(err.Error(), "behind follower epoch") {
		t.Fatalf("refusal error %q does not name the epoch conflict", err)
	}
}

// TestFaultScheduleConvergence is the fault-injection property test:
// for several seeded fault schedules (fragmented writes, short reads,
// delays, and injected connection kills on every dial), a follower
// streaming live churn must still converge to the primary's exact
// snapshot bytes once the writes stop. Kills tear connections mid-frame,
// so this exercises resume, re-install after history trims, and the
// handshake under partial I/O — the backoff loop must always recover.
func TestFaultScheduleConvergence(t *testing.T) {
	var totalReconnects, totalInstalls uint64
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := testGraph(t)
			svc := newPrimaryService(t, g, "")
			// A small history window forces captures and trims during the
			// run, so kills land followers on the re-install path too.
			const historyLimit = 128
			_, addr := startRepl(t, svc, 1, PrimaryOptions{HistoryLimit: historyLimit})
			rng := rand.New(rand.NewSource(seed))

			// The first redial after the install is held at a gate until
			// churn has pushed more than historyLimit ops past the
			// follower's resume point: the history is trimmed past it by
			// then, so the reconnect must re-install, whatever the timing.
			var (
				f        *Follower
				attempt  atomic.Int64
				gated    atomic.Bool
				released = make(chan struct{})
			)
			f = newTestFollower(t, addr, func(o *FollowerOptions) {
				o.Dial = func(ctx context.Context, a string) (net.Conn, error) {
					if f.Status().Installs > 0 && gated.CompareAndSwap(false, true) {
						select {
						case <-released:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
					d := net.Dialer{Timeout: time.Second}
					c, err := d.DialContext(ctx, "tcp", a)
					if err != nil {
						return nil, err
					}
					return faultconn.Wrap(c, faultconn.Options{
						Seed:          seed*1000 + attempt.Add(1),
						FragmentProb:  0.3,
						ShortReadProb: 0.3,
						DelayProb:     0.05,
						MaxDelay:      200 * time.Microsecond,
						KillProb:      0.05,
					}), nil
				}
			})
			runFollower(t, f)

			// Churn until a kill tears the installed stream and the redial
			// parks at the gate.
			for round := 0; !gated.Load(); round++ {
				if round == 200 {
					t.Fatalf("seed %d: no fault tore the stream in %d rounds of churn", seed, round)
				}
				churn(t, svc, rng, 15, 8)
				time.Sleep(10 * time.Millisecond) // let faults land mid-stream
			}
			churn(t, svc, rng, 2*historyLimit/8, 8)
			close(released)
			var ver uint64
			for round := 0; round < 3; round++ {
				ver = churn(t, svc, rng, 15, 8)
				time.Sleep(10 * time.Millisecond)
			}
			waitFor(t, 60*time.Second, fmt.Sprintf("convergence to version %d", ver), func() bool {
				return f.Status().Version >= ver
			})
			if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(f.Service().Snapshot())) {
				t.Fatalf("seed %d: follower snapshot bytes differ from primary after faults", seed)
			}
			st := f.Status()
			totalReconnects += st.Reconnects
			totalInstalls += st.Installs
			t.Logf("seed %d: converged at version %d after %d reconnects, %d installs",
				seed, ver, st.Reconnects, st.Installs)
		})
	}
	// The property is vacuous if no schedule ever tore a connection:
	// across the seeds, kills must have forced real reconnects and at
	// least one checkpoint re-install.
	if totalReconnects == 0 {
		t.Fatal("no fault schedule caused a reconnect; the injection is not biting")
	}
	if totalInstalls < 5 {
		t.Fatalf("only %d installs across all seeds; expected re-installs beyond the first per seed", totalInstalls)
	}
}

// TestCrossProcessDeterminism is the durable cross-check: a follower
// built from a checkpoint install plus the shipped WAL suffix must hold
// the same engine image, byte for byte, as a fresh serve.Open of the
// primary's own store directory — and both survive their own restarts
// with that image intact.
func TestCrossProcessDeterminism(t *testing.T) {
	g := testGraph(t)
	dirP, dirF := t.TempDir(), t.TempDir()
	svc := newPrimaryService(t, g, dirP)
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})
	rng := rand.New(rand.NewSource(13))

	f := newTestFollower(t, addr, func(o *FollowerOptions) { o.Dir = dirF })
	cancel := runFollower(t, f)

	ver := churn(t, svc, rng, 40, 8)
	waitFor(t, 20*time.Second, "follower sync", func() bool { return f.Status().Version >= ver })

	// The primary's capture is a real store checkpoint and thus a
	// boundary; the follower, synced to the same version, must produce
	// the identical image (checkpoints serialise graph + S + version,
	// not the candidate index).
	pver, pimg := captureImage(t, svc)
	if pver != ver {
		t.Fatalf("primary capture at version %d, churn ended at %d", pver, ver)
	}
	fver, fimg := captureImage(t, f.Service())
	if fver != pver || !bytes.Equal(pimg, fimg) {
		t.Fatalf("follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			fver, len(fimg), pver, len(pimg))
	}

	// Stop both processes and restart each from its own directory.
	cancel()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := serve.Open(dirP, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	over, oimg := captureImage(t, rp)
	if over != pver || !bytes.Equal(pimg, oimg) {
		t.Fatalf("reopened primary image (version %d, %d bytes) != live capture (version %d, %d bytes)",
			over, len(oimg), pver, len(pimg))
	}

	rf, err := serve.OpenFollower(dirF, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rver, rimg := captureImage(t, rf)
	if rver != pver || !bytes.Equal(pimg, rimg) {
		t.Fatalf("reopened follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			rver, len(rimg), pver, len(pimg))
	}
	if !rf.Follower() {
		t.Fatal("reopened follower store lost its follower mode")
	}
	if err := rf.Enqueue(context.Background(), workload.Op{Insert: true, U: 0, V: 1}); err != serve.ErrNotPrimary {
		t.Fatalf("reopened follower Enqueue err = %v, want ErrNotPrimary", err)
	}
}
