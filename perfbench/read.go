package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/framesrv"
	"repro/internal/httpapi"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/internal/workload"
)

// servers is the in-process serving stack of cmd/dkserver: one service,
// one shared response cache, the HTTP API and the frame server, each on
// a loopback listener.
type servers struct {
	svc      *serve.Service
	http     *http.Server
	fsrv     *framesrv.Server
	httpAddr string
	tcpAddr  string
	served   chan error // one value per Serve goroutine on exit
	writes   atomic.Int64
}

func startServers(svc *serve.Service, tr *tracer) (*servers, error) {
	s := &servers{svc: svc, served: make(chan error, 2)}
	cache := new(respcache.Snapshot)
	var h http.Handler = httpapi.New(svc, httpapi.Options{Cache: cache})
	if tr.on {
		h = tracedHandler{h: h, tr: tr}
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	s.httpAddr, s.tcpAddr = hl.Addr().String(), tl.Addr().String()
	var fl net.Listener = tl
	if tr.on {
		fl = tracedListener{Listener: tl, tr: tr, writes: &s.writes}
	}
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.fsrv = framesrv.New(svc, framesrv.Options{Cache: cache})
	go func() { s.served <- s.http.Serve(hl) }()
	go func() { s.served <- s.fsrv.Serve(fl) }()
	return s, nil
}

// close shuts both listeners down, waits for their Serve goroutines and
// closes the service.
func (s *servers) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := errors.Join(s.http.Shutdown(ctx), s.fsrv.Shutdown(ctx))
	for range 2 {
		if e := <-s.served; e != nil && !errors.Is(e, http.ErrServerClosed) && !errors.Is(e, framesrv.ErrServerClosed) {
			err = errors.Join(err, e)
		}
	}
	return errors.Join(err, s.svc.Close())
}

type readKind uint8

const (
	readClique readKind = iota
	readCliques
	readSnapshot
	writeToggle
)

// The read mix, as shares of each connection's arrivals. HTTP, the only
// transport that takes writes, carries httpToggleShare POST /update
// toggles, which move the snapshot version so the shared response cache
// misses some of the time; at the nominal rates (3,000/s TCP, 1,000/s
// HTTP) they are 1% of all arrivals, the write share of the repository's
// read-dominated serving rows (reads=99% in BenchmarkServeMixed and
// BenchmarkHTTPServeMixed). Both connections carry snapshotShare full
// binary snapshots and batchedShare 16-node batched lookups (the batch of
// BenchmarkHTTPCliques), and point lookups otherwise. Those read shares
// are this benchmark's choice — a small share of the costly snapshots,
// most reads single lookups — not measured from any trace.
const (
	httpToggleShare = 0.04
	snapshotShare   = 0.01
	batchedShare    = 0.28
	batchSize       = 16
	// checkShare of the reads are decoded and checked against the
	// snapshot at the version they report.
	checkShare = 0.02
	// opTimeout fails an op that has not completed this long after its
	// send time; a failed op counts as missing the latency limit.
	opTimeout = 2 * time.Second
)

// arrival is one scheduled operation of the read stage.
type arrival struct {
	at    time.Duration // send offset from the phase start
	due   time.Time
	tcp   bool
	kind  readKind
	check bool
	node  int32
	nodes []int32
	op    workload.Op
	id    uint64

	// Filled in on completion.
	done     time.Time
	failed   bool
	skipped  bool   // never sent: its connection's backlog was full (saturation phases only)
	version  uint64 // of a decoded response
	checked  bool
	checkErr error
}

// readLoad drives the two client connections of the read stage.
type readLoad struct {
	srv     *servers
	tr      *tracer
	n       int32
	toggles []workload.Op
	next    int // next toggle to send

	conn net.Conn
	hc   *workload.HTTPClient
	raw  *http.Client
	rt   *idTransport

	mu    sync.Mutex
	snaps map[uint64]*dynamic.Snapshot // the recently published versions
}

// keepVersions is how many versions back a response may report and
// still be checked. Responses report a version published while they were
// in flight, a few milliseconds; the toggles publish at most a few hundred
// a second, in the HTTP saturation phase.
const keepVersions = 128

// idTransport stamps the current request id and client span on
// outgoing requests when tracing (see reqHeader). Only the HTTP worker
// goroutine sends, one request at a time.
type idTransport struct {
	base *http.Transport
	on   bool
	id   uint64
	span int32
}

func (t *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.on {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(t.id, 10)+"."+strconv.Itoa(int(t.span)))
	}
	return t.base.RoundTrip(r)
}

func newReadLoad(srv *servers, tr *tracer, toggles []workload.Op) (*readLoad, error) {
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	rt := &idTransport{base: base, on: tr.on}
	client := &http.Client{Transport: rt, Timeout: opTimeout}
	l := &readLoad{
		srv: srv, tr: tr, n: int32(srv.svc.Snapshot().N()), toggles: toggles,
		hc:  &workload.HTTPClient{Base: "http://" + srv.httpAddr, Client: client, Binary: true},
		raw: client, rt: rt,
		snaps: map[uint64]*dynamic.Snapshot{},
	}
	l.record(srv.svc.Snapshot())
	return l, l.dial()
}

func (l *readLoad) dial() error {
	c, err := net.DialTimeout("tcp", l.srv.tcpAddr, workload.DialTimeout)
	if err != nil {
		return err
	}
	l.conn = c
	return nil
}

func (l *readLoad) close() {
	if l.conn != nil {
		l.conn.Close()
	}
	l.rt.base.CloseIdleConnections()
}

// record keeps a published snapshot for checking responses and drops
// those more than keepVersions older.
func (l *readLoad) record(s *dynamic.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.put(s)
}

func (l *readLoad) put(s *dynamic.Snapshot) {
	l.snaps[s.Version()] = s
	for v := range l.snaps {
		if v+keepVersions < s.Version() {
			delete(l.snaps, v)
		}
	}
}

// snapshotAt returns the published snapshot of version v, or nil if v
// was never published (or is too old to keep). Only the toggles publish,
// one at a time, and each is recorded before the next is sent, so at
// most the latest version is not yet recorded.
func (l *readLoad) snapshotAt(v uint64) *dynamic.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.snaps[v]; s != nil {
		return s
	}
	if s := l.srv.svc.Snapshot(); s.Version() == v {
		l.put(s)
		return s
	}
	return nil
}

// verify checks a decoded response of a checked read against the
// snapshot at the version it reports.
func (l *readLoad) verify(a *arrival, f *wire.Frame) {
	a.version = f.Version
	if !a.check {
		return
	}
	a.checked = true
	if snap := l.snapshotAt(f.Version); snap == nil {
		a.checkErr = fmt.Errorf("response reports version %d, which was never published (latest %d, %d kept, tcp=%v kind=%d)",
			f.Version, l.srv.svc.Snapshot().Version(), len(l.snaps), a.tcp, a.kind)
	} else if err := checkFrame(a, f, snap); err != nil {
		a.checkErr = fmt.Errorf("version %d: %w", f.Version, err)
	}
}

// schedule draws the arrivals of one phase at rate per second over d;
// each goes to the TCP connection with probability tcpShare.
func (l *readLoad) schedule(rng *rand.Rand, rate, tcpShare float64, d time.Duration) []arrival {
	offs := poisson(rng, rate, d)
	out := make([]arrival, len(offs))
	for i, at := range offs {
		a := arrival{at: at, tcp: rng.Float64() < tcpShare, check: rng.Float64() < checkShare}
		switch x := rng.Float64(); {
		case !a.tcp && x < httpToggleShare:
			a.kind, a.check = writeToggle, false
			a.op = l.toggles[l.next%len(l.toggles)]
			l.next++
		case x >= 1-snapshotShare:
			a.kind = readSnapshot
		case x >= 1-snapshotShare-batchedShare:
			a.kind = readCliques
			a.nodes = make([]int32, batchSize)
			for j := range a.nodes {
				a.nodes[j] = rng.Int31n(l.n)
			}
		default:
			a.kind = readClique
			a.node = rng.Int31n(l.n)
		}
		out[i] = a
	}
	return out
}

// phase is the outcome of one open-loop phase at a fixed offered rate.
type phase struct {
	dur      time.Duration
	arrivals []arrival
	lag      []float64 // µs the generator sent each arrival late
	start    time.Time // when the schedule began
	from, to time.Duration
}

// run executes arrivals open-loop: the generator sends each at its due
// time whatever the state of earlier ones, the TCP receiver and the HTTP
// worker complete them in order on their connection. A backlog above 0
// bounds each connection's unanswered arrivals: one due while its
// connection has that many is skipped, as a full queue would refuse it.
// That keeps a saturation phase to its length, with no long tail of
// queued requests to drain once its schedule ends.
func (l *readLoad) run(arr []arrival, dur time.Duration, backlog int) *phase {
	p := &phase{dur: dur, arrivals: arr, lag: make([]float64, 0, len(arr))}
	if l.conn == nil {
		if err := l.dial(); err != nil {
			for i := range arr {
				arr[i].failed = true
			}
			return p
		}
	}
	p.from = l.tr.now()
	p.start = time.Now().Add(2 * time.Millisecond)
	for i := range arr {
		arr[i].due = p.start.Add(arr[i].at)
	}
	tcpQ := make(chan *arrival, len(arr)) // never blocks the generator
	httpQ := make(chan *arrival, len(arr))
	conn := l.conn
	var broken bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); broken = l.receiveTCP(conn, tcpQ) }()
	go func() { defer wg.Done(); l.serveHTTP(httpQ) }()

	var out []byte
	for i := 0; i < len(arr); {
		sleepUntil(arr[i].due)
		now := time.Now()
		out = out[:0]
		// Send everything already due in one go; TCP requests share a write.
		for ; i < len(arr) && !arr[i].due.After(now); i++ {
			a := &arr[i]
			p.lag = append(p.lag, us(now.Sub(a.due)))
			if backlog > 0 && ((a.tcp && len(tcpQ) >= backlog) || (!a.tcp && len(httpQ) >= backlog)) {
				a.skipped = true
				continue
			}
			if l.tr.on {
				a.id = l.tr.newID()
			}
			if !a.tcp {
				httpQ <- a
				continue
			}
			switch a.kind {
			case readClique:
				out = wire.AppendCliqueRequest(out, a.node, "")
			case readCliques:
				out = wire.AppendCliquesRequest(out, a.nodes, "")
			case readSnapshot:
				out = wire.AppendSnapshotRequest(out, true, "")
			}
			tcpQ <- a
		}
		if len(out) > 0 {
			conn.SetWriteDeadline(now.Add(opTimeout))
			if _, err := conn.Write(out); err != nil {
				// The receiver fails everything still queued once the
				// broken connection errors its read.
				conn.Close()
			}
		}
	}
	close(tcpQ)
	close(httpQ)
	wg.Wait()
	if broken {
		l.conn = nil
	}
	p.to = l.tr.now()
	return p
}

// receiveTCP completes the TCP arrivals in send order. A read error
// leaves the stream unusable: the connection is dropped, the rest of the
// phase fails, and the next phase dials again. It reports whether the
// connection broke.
func (l *readLoad) receiveTCP(conn net.Conn, q <-chan *arrival) bool {
	fc := workload.NewFrameClient(conn)
	fc.SetIOTimeout(opTimeout)
	broken := false
	for a := range q {
		start := l.tr.now()
		if broken {
			a.failed = true
		} else if a.check || (l.tr.on && a.kind == readSnapshot) {
			f, err := fc.Recv()
			a.failed = err != nil
			if f != nil {
				l.verify(a, f)
			}
		} else {
			_, _, err := fc.RecvRaw()
			a.failed = err != nil
		}
		a.done = time.Now()
		if a.failed && !broken {
			broken = true
			conn.Close()
		}
		l.tr.add(a.id, -1, "workload.tcp_recv", start)
	}
	return broken
}

// serveHTTP completes the HTTP arrivals one at a time over the single
// keep-alive connection; arrivals queue behind a slow one, as they would
// behind any one-connection client.
func (l *readLoad) serveHTTP(q <-chan *arrival) {
	for a := range q {
		span := l.tr.begin(a.id, "workload.http_op")
		l.rt.id, l.rt.span = a.id, span
		var err error
		switch {
		case a.kind == writeToggle:
			if err = l.hc.Update([]workload.Op{a.op}, true); err == nil {
				// The single writer is idle again: this is the version the
				// toggle published.
				l.record(l.srv.svc.Snapshot())
			}
		case a.check || (l.tr.on && a.kind == readSnapshot):
			err = l.getChecked(a)
		case a.kind == readClique:
			_, err = l.hc.CliqueOf(a.node)
		case a.kind == readCliques:
			_, err = l.hc.Cliques(a.nodes)
		case a.kind == readSnapshot:
			_, err = l.hc.Snapshot(true)
		}
		a.done = time.Now()
		a.failed = err != nil
		l.tr.end(span)
	}
}

// getChecked fetches a read over HTTP keeping and decoding the body.
func (l *readLoad) getChecked(a *arrival) error {
	var path []byte
	switch a.kind {
	case readClique:
		path = strconv.AppendInt([]byte("/clique/"), int64(a.node), 10)
	case readCliques:
		path = []byte("/cliques?nodes=")
		for i, u := range a.nodes {
			if i > 0 {
				path = append(path, ',')
			}
			path = strconv.AppendInt(path, int64(u), 10)
		}
	case readSnapshot:
		path = []byte("/snapshot")
	}
	req, err := http.NewRequest(http.MethodGet, l.hc.Base+string(path), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := l.raw.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	f, _, err := wire.Decode(body)
	if err != nil {
		return err
	}
	l.verify(a, f)
	return nil
}

// check returns how many responses of a phase were checked, and the
// first check that failed.
func check(p *phase) (int, error) {
	n := 0
	for i := range p.arrivals {
		if a := &p.arrivals[i]; a.checked {
			if a.checkErr != nil {
				return n, a.checkErr
			}
			n++
		}
	}
	return n, nil
}

func checkFrame(a *arrival, f *wire.Frame, snap *dynamic.Snapshot) error {
	switch a.kind {
	case readClique:
		want := snap.CliqueOf(a.node)
		if f.Type != wire.FrameClique || f.Node != a.node || f.Covered != (want != nil) || !slices.Equal(f.Members, want) {
			return fmt.Errorf("point lookup of node %d: got %v covered=%v, want %v", a.node, f.Members, f.Covered, want)
		}
	case readCliques:
		if f.Type != wire.FrameCliques || len(f.Lookups) != len(a.nodes) {
			return fmt.Errorf("batched lookup: got %d results for %d nodes", len(f.Lookups), len(a.nodes))
		}
		for i, lk := range f.Lookups {
			want := snap.CliqueOf(a.nodes[i])
			var got []int32
			if lk.Clique >= 0 {
				got = f.Cliques[lk.Clique]
			}
			if lk.Node != a.nodes[i] || !slices.Equal(got, want) {
				return fmt.Errorf("batched lookup of node %d: got %v, want %v", a.nodes[i], got, want)
			}
		}
	case readSnapshot:
		if f.Type != wire.FrameSnapshot || f.Size != snap.Size() || f.Edges != snap.M() ||
			!slices.EqualFunc(f.Cliques, snap.Cliques(), slices.Equal) {
			return fmt.Errorf("snapshot body differs from the published snapshot")
		}
	}
	return nil
}

// readResult summarises the reads of a phase.
type readResult struct {
	tcp, http []float64 // read latency from send time, µs; failed reads at opTimeout
	attempted int
	failed    int
}

func summarise(p *phase) readResult {
	var r readResult
	for i := range p.arrivals {
		a := &p.arrivals[i]
		if a.skipped {
			continue
		}
		r.attempted++
		lat := us(a.done.Sub(a.due))
		if a.failed {
			r.failed++
			lat = us(opTimeout)
		}
		switch {
		case a.kind == writeToggle:
		case a.tcp:
			r.tcp = append(r.tcp, lat)
		default:
			r.http = append(r.http, lat)
		}
	}
	return r
}
