package chaos

import (
	"testing"
	"time"

	"repro/internal/cosmicnet"
)

// FuzzChaosSchedule feeds arbitrary schedule text to the parser and, when it
// parses, runs the schedule against a two-endpoint loopback exchange on a
// virtual clock. The property under test is robustness, not delivery: no
// panic, no deadlock (the exchange is bounded by a real-time watchdog that
// severs the connection), and the fabric keeps accepting writes or fails
// them cleanly.
func FuzzChaosSchedule(f *testing.F) {
	f.Add("seed 3\nlink a->b drop 0.5 data-only\n")
	f.Add("link a->b latency 1ms jitter 1ms reorder 0.9\npartition b->a at 1ms heal 2ms\n")
	f.Add("link *->* kill-frame 3\n")
	f.Add("link a->b bandwidth 17\npartition a<->b at 0\n")
	f.Add("seed -9\nlink b->a drop 1\nlink a->b reorder 1 data-only\n# comment\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized schedule")
		}
		sched, err := ParseSchedule(src)
		if err != nil {
			return // rejecting bad grammar cleanly is the contract
		}
		vc := NewVirtualClock()
		stopAuto := vc.StartAuto()
		defer stopAuto()
		nw := NewNetwork(sched, vc)
		ln, err := nw.Endpoint("b").Listen("")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.AcceptConn()
			if err != nil {
				return
			}
			defer conn.Close()
			var f cosmicnet.Frame
			for {
				if err := conn.Recv(&f); err != nil {
					return
				}
			}
		}()
		conn, err := nw.Endpoint("a").Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Watchdog: whatever the schedule does, the exchange must wind down
		// once the connection is severed. Virtual latency collapses under
		// StartAuto, so 5s of real time only passes if something deadlocks.
		watchdog := time.AfterFunc(5*time.Second, func() { conn.Close() })
		defer watchdog.Stop()
		frame := &cosmicnet.Frame{Type: cosmicnet.MsgPartial, Payload: make([]float64, 8)}
		for i := 0; i < 6; i++ {
			frame.Seq = uint32(i)
			if err := conn.Send(frame); err != nil {
				break // a killed link fails writes cleanly
			}
		}
		conn.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("receiver never unblocked after close")
		}
	})
}
