package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/ml"
	"repro/internal/runtime"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the enclosing span (-1 for none).
	Parent int `json:"parent"`
	// Op is the round (training) or build (table1-build) the span belongs
	// to; Node is the cluster node (-1 off the cluster).
	Op   int `json:"op"`
	Node int `json:"node"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add stores s and returns its index for use as a parent.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// finish sets the end of span i to now.
func (r *recorder) finish(i int) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = end
}

// link makes span parent the parent of span child.
func (r *recorder) link(child, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[child].Parent = parent
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracedEngine wraps a node's runtime.Engine and records one span per
// PartialUpdate. A node calls its engine once per round, from one
// goroutine, so the call count is the round number since Launch.
type tracedEngine struct {
	inner runtime.Engine
	layer string
	node  int
	rec   *recorder
	calls int
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	start := e.rec.now()
	p, err := e.inner.PartialUpdate(model, shard)
	e.rec.add(span{Name: e.layer, Start: start, End: e.rec.now(), Parent: -1, Op: e.calls, Node: e.node})
	e.calls++
	return p, err
}

// netCounters are the work and busy time every wrapped connection adds up.
type netCounters struct {
	bytes, writes, writeNs atomic.Int64
}

type netSnap struct{ bytes, writes, writeNs int64 }

func (c *netCounters) snap() netSnap {
	return netSnap{c.bytes.Load(), c.writes.Load(), c.writeNs.Load()}
}

func (a netSnap) minus(b netSnap) netSnap {
	return netSnap{a.bytes - b.bytes, a.writes - b.writes, a.writeNs - b.writeNs}
}

// countingTransport is cosmicnet.TCP with every connection's Write counted
// and timed.
type countingTransport struct{ c *netCounters }

func (t countingTransport) Listen(addr string) (*cosmicnet.Listener, error) {
	ln, err := cosmicnet.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &cosmicnet.Listener{Listener: countingListener{Listener: ln.Listener, c: t.c}}, nil
}

func (t countingTransport) Dial(addr string) (*cosmicnet.Conn, error) {
	conn, err := cosmicnet.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &cosmicnet.Conn{Conn: &countingConn{Conn: conn.Conn, c: t.c}}, nil
}

type countingListener struct {
	net.Listener
	c *netCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *netCounters
}

func (c *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.c.writeNs.Add(int64(time.Since(start)))
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}
