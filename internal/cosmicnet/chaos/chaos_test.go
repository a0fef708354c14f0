package chaos

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
)

// startEcho opens a listener on the named endpoint and returns its address
// plus a channel of everything the accept loop receives (closed on conn
// error). One connection is served.
func startEcho(t *testing.T, nw *Network, name string) (string, <-chan *cosmicnet.Frame) {
	t.Helper()
	ln, err := nw.Endpoint(name).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan *cosmicnet.Frame, 1024)
	go func() {
		defer close(out)
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		for {
			f := new(cosmicnet.Frame)
			if err := conn.Recv(f); err != nil {
				return
			}
			out <- f
		}
	}()
	return ln.Addr().String(), out
}

func TestLoopbackRoundTrip(t *testing.T) {
	nw := NewNetwork(nil, nil)
	addr, got := startEcho(t, nw, "b")
	conn, err := nw.Endpoint("a").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := []float64{1, 2.5, -3, 4}
	for seq := uint32(0); seq < 8; seq++ {
		f := &cosmicnet.Frame{
			Type: cosmicnet.MsgPartial, Seq: seq, From: 7, Weight: 2,
			Payload: want, TraceID: 99, SpanID: 100,
			ChunkIndex: 1, ChunkCount: 4, ChunkOffset: 64,
		}
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
		r := <-got
		if r == nil {
			t.Fatal("connection dropped")
		}
		if r.Seq != seq || r.From != 7 || r.Weight != 2 || r.TraceID != 99 ||
			r.ChunkCount != 4 || len(r.Payload) != len(want) {
			t.Fatalf("frame %d corrupted: %+v", seq, r)
		}
		for i, v := range want {
			if r.Payload[i] != v {
				t.Fatalf("payload[%d] = %g, want %g", i, r.Payload[i], v)
			}
		}
	}
}

// sendAndCollect pushes n data frames plus a MsgDone end marker through a
// fresh network built from the schedule and returns the Seqs that arrived.
// The schedule must leave control frames intact (data-only rules) so the
// marker always lands.
func sendAndCollect(t *testing.T, src string, n int) []uint32 {
	t.Helper()
	sched, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(sched, nil)
	addr, got := startEcho(t, nw, "b")
	conn, err := nw.Endpoint("a").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq := 0; seq < n; seq++ {
		f := &cosmicnet.Frame{Type: cosmicnet.MsgPartial, Seq: uint32(seq), Payload: []float64{float64(seq)}}
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgDone}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for f := range got {
		if f.Type == cosmicnet.MsgDone {
			return seqs
		}
		seqs = append(seqs, f.Seq)
	}
	t.Fatal("end marker never arrived")
	return nil
}

func TestDropIsSeedDeterministic(t *testing.T) {
	const src = "seed 7\nlink a->b drop 0.4 data-only\n"
	first := sendAndCollect(t, src, 200)
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("drop 0.4 delivered %d/200 frames", len(first))
	}
	second := sendAndCollect(t, src, 200)
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d frames", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at arrival %d: %d vs %d", i, first[i], second[i])
		}
	}
	other := sendAndCollect(t, "seed 8\nlink a->b drop 0.4 data-only\n", 200)
	same := len(other) == len(first)
	for i := 0; same && i < len(first); i++ {
		same = first[i] == other[i]
	}
	if same {
		t.Error("different seeds made identical drop decisions across 200 frames")
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	got := sendAndCollect(t, "link a->b reorder 1 data-only\n", 4)
	want := []uint32{1, 0, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", got, want)
		}
	}
}

func TestKillMidFrameSeversBothSides(t *testing.T) {
	sched, err := ParseSchedule("link a->b kill-frame 2 once\n")
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(sched, nil)
	ln, err := nw.Endpoint("b").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr := make(chan error, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			acceptErr <- err
			return
		}
		var f cosmicnet.Frame
		if err := conn.Recv(&f); err != nil {
			acceptErr <- err
			return
		}
		acceptErr <- conn.Recv(&f) // frame 2 arrives truncated, then EOF
	}()
	conn, err := nw.Endpoint("a").Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := &cosmicnet.Frame{Type: cosmicnet.MsgPartial, Payload: make([]float64, 32)}
	if err := conn.Send(f); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(f); err == nil {
		t.Error("send of the killed frame should fail")
	}
	if err := <-acceptErr; err == nil {
		t.Error("receiver should see a truncated frame or EOF")
	}
	// once: a redial survives its second frame.
	conn2, err := nw.Endpoint("a").Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	for i := 0; i < 4; i++ {
		if err := conn2.Send(f); err != nil {
			t.Fatalf("frame %d after redial: %v", i, err)
		}
	}
}

func TestPartitionHealsOnVirtualClock(t *testing.T) {
	sched, err := ParseSchedule("partition a->b at 1ms heal 2ms\n")
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	nw := NewNetwork(sched, vc)
	addr, got := startEcho(t, nw, "b")
	conn, err := nw.Endpoint("a").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(seq uint32) {
		if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgPartial, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	send(0) // t=0: before the window
	vc.Advance(1500 * time.Microsecond)
	send(1) // t=1.5ms: inside, blackholed
	vc.Advance(1 * time.Millisecond)
	send(2) // t=2.5ms: healed
	if f := <-got; f.Seq != 0 {
		t.Fatalf("first arrival seq %d, want 0", f.Seq)
	}
	if f := <-got; f.Seq != 2 {
		t.Fatalf("second arrival seq %d, want 2 (1 blackholed)", f.Seq)
	}
}

func TestLatencyAccruesOnVirtualClock(t *testing.T) {
	sched, err := ParseSchedule("link a->b latency 10ms\n")
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	stop := vc.StartAuto()
	defer stop()
	nw := NewNetwork(sched, vc)
	addr, got := startEcho(t, nw, "b")
	conn, err := nw.Endpoint("a").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgPartial}); err != nil {
		t.Fatal(err)
	}
	<-got
	if now := vc.Now(); now < 10*time.Millisecond {
		t.Errorf("frame arrived at virtual t=%v, want >= 10ms", now)
	}
}

func TestBandwidthSerializesFrames(t *testing.T) {
	// 1000 B/s: each ~49-byte frame costs ~49ms of serialization, and the
	// second frame queues behind the first.
	sched, err := ParseSchedule("link a->b bandwidth 1000\n")
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	stop := vc.StartAuto()
	defer stop()
	nw := NewNetwork(sched, vc)
	addr, got := startEcho(t, nw, "b")
	conn, err := nw.Endpoint("a").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := &cosmicnet.Frame{Type: cosmicnet.MsgPartial, Payload: make([]float64, 2)}
	for i := 0; i < 2; i++ {
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	<-got
	<-got
	if now := vc.Now(); now < 80*time.Millisecond {
		t.Errorf("two frames serialized by virtual t=%v, want >= 80ms", now)
	}
}

// TestWrapTransportDataOnlyDrop interposes the fault engine on real TCP:
// control frames pass, data frames vanish.
func TestWrapTransportDataOnlyDrop(t *testing.T) {
	sched, err := ParseSchedule("link w->* drop 1 data-only\n")
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(sched, nil)
	ln, err := cosmicnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *cosmicnet.Frame, 16)
	go func() {
		defer close(got)
		conn, err := ln.AcceptConn()
		if err != nil {
			return
		}
		for {
			f := new(cosmicnet.Frame)
			if err := conn.Recv(f); err != nil {
				return
			}
			got <- f
		}
	}()
	tr := nw.WrapTransport(cosmicnet.TCP, "w")
	conn, err := tr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgPartial, Payload: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgHello, Text: "here"}); err != nil {
		t.Fatal(err)
	}
	f := <-got
	if f == nil || f.Type != cosmicnet.MsgHello {
		t.Fatalf("first surviving frame %+v, want the hello (data dropped)", f)
	}
	conn.Close()
	if f, ok := <-got; ok {
		t.Fatalf("unexpected extra frame %+v", f)
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	const src = `seed 42
link a->b latency 5ms jitter 1ms drop 0.25 reorder 0.1 bandwidth 1048576 kill-frame 9 once data-only
link *->a drop 0.5
partition a->b at 100ms heal 250ms
partition b<->c at 1s
`
	s, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", s.String(), err)
	}
	if s.String() != again.String() {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", s.String(), again.String())
	}
	if len(s.Links) != 2 || len(s.Partitions) != 2 || s.Seed != 42 {
		t.Fatalf("parsed %+v", s)
	}
	r := s.Links[0]
	if r.Latency != 5*time.Millisecond || r.Jitter != time.Millisecond ||
		r.Drop != 0.25 || r.Reorder != 0.1 || r.Bandwidth != 1<<20 ||
		r.KillFrame != 9 || !r.KillOnce || !r.DataOnly {
		t.Fatalf("rule %+v", r)
	}
	if p := s.Partitions[1]; !p.TwoWay || p.Heals {
		t.Fatalf("partition %+v", p)
	}
}

func TestScheduleParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"bogus 1\n", "line 1"},
		{"seed\n", "seed"},
		{"link a-b drop 0.5\n", "from->to"},
		{"link a->b drop 1.5\n", "probability"},
		{"link a->b warp 3\n", "unknown link option"},
		{"link a<->b drop 0.5\n", "one-way"},
		{"link a->b once\n", "kill-frame"},
		{"partition a->b\n", "partition wants"},
		{"partition a->b at 2ms heal 1ms\n", "heal"},
		{"# fine\nlink ->b drop 1\n", "line 2"},
	}
	for _, c := range cases {
		if _, err := ParseSchedule(c.src); err == nil {
			t.Errorf("%q parsed", c.src)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q lacks %q", c.src, err, c.wantSub)
		}
	}
}

// TestLastMatchingLinkRuleWins: a later, more specific rule replaces the
// wildcard wholesale.
func TestLastMatchingLinkRuleWins(t *testing.T) {
	sched, err := ParseSchedule("link *->b drop 1\nlink a->b latency 1ms\n")
	if err != nil {
		t.Fatal(err)
	}
	f := sched.faultsFor("a", "b")
	if f.rule.Drop != 0 || f.rule.Latency != time.Millisecond {
		t.Fatalf("resolved rule %+v, want the later rule only", f.rule)
	}
	g := sched.faultsFor("c", "b")
	if g.rule.Drop != 1 {
		t.Fatalf("wildcard rule lost: %+v", g.rule)
	}
}

// TestConcurrentSendsStayFramed: a chaos conn takes each frame as separate
// header and payload writes, so concurrent senders on one conn must not
// interleave them. Every frame must arrive whole and decode to what its
// sender wrote.
func TestConcurrentSendsStayFramed(t *testing.T) {
	const senders, perSender, words = 4, 50, 1000
	nw := NewNetwork(nil, nil)
	addr, got := startEcho(t, nw, "sigma")
	conn, err := nw.Endpoint("worker").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	value := func(from, seq uint32, i int) float64 {
		return float64(from)*1e6 + float64(seq)*1e3 + float64(i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := uint32(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]float64, words)
			for seq := uint32(0); seq < perSender; seq++ {
				for i := range p {
					p[i] = value(s, seq, i)
				}
				if err := conn.Send(&cosmicnet.Frame{
					Type: cosmicnet.MsgPartial, Seq: seq, From: s, Weight: 1, Payload: p,
					ChunkIndex: 0, ChunkCount: 1,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	next := make([]uint32, senders)
	for n := 0; n < senders*perSender; n++ {
		f := <-got
		if f == nil {
			t.Fatalf("stream broke after %d frames", n)
		}
		if f.From >= senders || f.Seq != next[f.From] || len(f.Payload) != words {
			t.Fatalf("frame %d: from %d seq %d with %d words", n, f.From, f.Seq, len(f.Payload))
		}
		for i, v := range f.Payload {
			if v != value(f.From, f.Seq, i) {
				t.Fatalf("frame from %d seq %d: payload[%d] = %g", f.From, f.Seq, i, v)
			}
		}
		next[f.From]++
	}
}
