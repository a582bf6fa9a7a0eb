package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share id;
// parent indexes the recorder's span list (-1 for a root span). A span
// holds no pointers, and the store grows by whole chunks, so the
// collector never scans the spans and recording never copies them:
// tracing adds allocation but no marking work to the GC cycles the
// traced run measures.
type span struct {
	id         uint64
	parent     int32
	name       uint8         // index into tracer.names
	start, end time.Duration // on the tracer's clock
}

// spanChunk is how many spans one chunk of the store holds.
const spanChunk = 1 << 16

// tracer keeps spans in memory for the whole run; write dumps them when
// the run ends. A disabled tracer records nothing and costs one branch.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Uint64

	mu     sync.Mutex
	chunks [][]span
	n      int
	names  []string
	nameID map[string]uint8
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), nameID: map[string]uint8{}}
}

// now reads the tracer's clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newID returns a fresh request id.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// push appends a span named name and returns its index; t.mu is held.
func (t *tracer) push(id uint64, parent int32, name string, start, end time.Duration) int32 {
	nid, ok := t.nameID[name]
	if !ok {
		nid = uint8(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = nid
	}
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, span{id: id, parent: parent, name: nid, start: start, end: end})
	t.n++
	return int32(t.n - 1)
}

// add records a span that started at start and ends now.
func (t *tracer) add(id uint64, parent int32, name string, start time.Duration) {
	if !t.on {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.push(id, parent, name, start, end)
	t.mu.Unlock()
}

// begin opens a root span starting now and returns its index, for end
// and for the parent link of spans it causes; -1 when tracing is off.
func (t *tracer) begin(id uint64, name string) int32 {
	if !t.on {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.push(id, -1, name, start, -1)
}

// end closes a span begin opened.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.chunks[i/spanChunk][i%spanChunk].end = now
	t.mu.Unlock()
}

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// intervals returns the time ranges of every span named name that
// started within [from, to), in recording order.
func (t *tracer) intervals(name string, from, to time.Duration) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	nid, ok := t.nameID[name]
	if !ok {
		return nil
	}
	var out []interval
	for _, c := range t.chunks {
		for _, s := range c {
			if s.name == nid && s.start >= from && s.start < to {
				out = append(out, interval{s.start, s.end})
			}
		}
	}
	return out
}

// micros returns the durations in microseconds of every span named name
// that started within [from, to).
func (t *tracer) micros(name string, from, to time.Duration) []float64 {
	iv := t.intervals(name, from, to)
	out := make([]float64, len(iv))
	for i, s := range iv {
		out[i] = us(s.end - s.start)
	}
	return out
}

// write dumps every span as one tab-separated line:
// id, parent, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	for _, c := range t.chunks {
		for _, s := range c {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, t.names[s.name], s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqHeader carries the client's request id and span index to the traced
// HTTP handler, as "id.index", so the handler span shares the request's
// id and names the client span as its parent.
const reqHeader = "X-Perfbench-Req"

// tracedHandler times every call into the httpapi handler.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := th.tr.now()
	th.h.ServeHTTP(w, r)
	idStr, parentStr, _ := strings.Cut(r.Header.Get(reqHeader), ".")
	id, _ := strconv.ParseUint(idStr, 10, 64)
	parent, err := strconv.ParseInt(parentStr, 10, 32)
	if err != nil {
		parent = -1
	}
	th.tr.add(id, int32(parent), "httpapi.handler", start)
}

// tracedListener hands framesrv connections that time each turn: from a
// Read that returns request bytes to the Write that answers them.
type tracedListener struct {
	net.Listener
	tr     *tracer
	writes *atomic.Int64
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, writes: l.writes, turnStart: -1}, nil
}

// tracedConn is used by one framesrv connection goroutine, which does
// both its reads and its writes, so its fields need no locking.
type tracedConn struct {
	net.Conn
	tr        *tracer
	writes    *atomic.Int64
	turnStart time.Duration // -1 while no request bytes are unanswered
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.turnStart < 0 {
		c.turnStart = c.tr.now()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	if c.turnStart >= 0 {
		c.tr.add(c.tr.newID(), -1, "framesrv.turn", c.turnStart)
		c.turnStart = -1
	}
	return n, err
}

// tracedGate is the serve.Options.ApplyGate of a traced durable service:
// the writer acquires it right before and releases it right after every
// ApplyBatch call, so each Acquire→Release pair is one engine apply.
// Only the writer goroutine calls it.
type tracedGate struct {
	tr    *tracer
	start time.Duration
}

func (g *tracedGate) Acquire() { g.start = g.tr.now() }
func (g *tracedGate) Release() { g.tr.add(g.tr.newID(), -1, "dynamic.apply", g.start) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
