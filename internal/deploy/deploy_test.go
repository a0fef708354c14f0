package deploy

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/obs"
)

// TestMasterWorkersEndToEnd runs the full Director handshake and a training
// run with workers joining over TCP (see runDirector).
func TestMasterWorkersEndToEnd(t *testing.T) {
	spec := Spec{
		Nodes: 5, Groups: 2,
		Benchmark: "tumor", Scale: 0.02, Samples: 1000, Seed: 3,
		MiniBatch: 100, Rounds: 12, Threads: 2, Average: true,
	}
	res := runDirector(t, spec)
	if res.Stats.Rounds != spec.Rounds {
		t.Errorf("rounds = %d", res.Stats.Rounds)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("distributed training did not learn: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestMasterFlatTopology(t *testing.T) {
	spec := Spec{
		Nodes: 3, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 360, Seed: 5,
		MiniBatch: 60, Rounds: 8, Average: true,
	}
	res := runDirector(t, spec)
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestSingleNodeMaster(t *testing.T) {
	spec := Spec{
		Nodes: 1, Groups: 1,
		Benchmark: "stock", Scale: 0.01, Samples: 100, Seed: 2,
		MiniBatch: 50, Rounds: 5, Average: true,
	}
	res, err := RunMaster(freeAddr(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, Benchmark: "face"},
		{Nodes: 2, Groups: 5, Benchmark: "face"},
		{Nodes: 2, Benchmark: "no-such-benchmark"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
	good := Spec{Nodes: 4, Benchmark: "face"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Groups != 1 || good.Samples == 0 || good.Rounds == 0 || good.MiniBatch == 0 {
		t.Errorf("defaults not filled: %+v", good)
	}
}

// TestMasterIgnoresGarbageJoin: a connection that speaks nonsense is
// dropped without wedging the handshake.
func TestMasterIgnoresGarbageJoin(t *testing.T) {
	spec := Spec{
		Nodes: 2, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 160, Seed: 9,
		MiniBatch: 40, Rounds: 3, Average: true,
	}
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(addr, spec)
		done <- err
	}()

	// A garbage client connects first and sends a non-hello frame.
	garbage, err := cosmicnet.Dial(addr)
	if err != nil {
		// The master may not be listening yet; retry once it is.
		for err != nil {
			garbage, err = cosmicnet.Dial(addr)
		}
	}
	_ = garbage.Send(&cosmicnet.Frame{Type: cosmicnet.MsgDone})

	// A real worker follows.
	go func() {
		if err := RunWorker(addr); err != nil {
			t.Error(err)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	garbage.Close()
}

// TestWorkerRejectsOutOfRangeNodeID: a worker derives its role from the node
// ID in its MsgConfig, so an ID the Spec's cluster does not have (or the
// master's own) is an error, not an index out of range.
func TestWorkerRejectsOutOfRangeNodeID(t *testing.T) {
	for _, id := range []uint32{0, 2, 9} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn := &cosmicnet.Conn{Conn: raw}
			defer conn.Close()
			var hello cosmicnet.Frame
			if err := conn.Recv(&hello); err != nil {
				return
			}
			blob, _ := json.Marshal(workerConfig{NodeID: id, Spec: Spec{Nodes: 2, Benchmark: "face"}})
			_ = conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgConfig, Text: string(blob)})
			_ = conn.Recv(&hello) // hold the connection until the worker gives up
		}()
		err = RunWorker(ln.Addr().String())
		ln.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("assigns node %d of a 2-node cluster", id)) {
			t.Errorf("node ID %d: RunWorker error %v", id, err)
		}
	}
}

// TestMasterFederatesWorkerMetrics: the Director scrapes workers over the
// control plane during training and serves their metrics, its own, and the
// cluster roster over HTTP.
func TestMasterFederatesWorkerMetrics(t *testing.T) {
	spec := Spec{
		Nodes: 3, Groups: 1,
		Benchmark: "face", Scale: 0.02, Samples: 360, Seed: 7,
		MiniBatch: 60, Rounds: 200, Average: true,
	}
	addr := freeAddr(t)

	var wg sync.WaitGroup
	for i := 0; i < spec.Nodes-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorkerOpts(addr, WorkerOptions{Obs: obs.New()}); err != nil {
				t.Error(err)
			}
		}()
	}

	httpAddr := make(chan string, 1)
	masterDone := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = RunMasterOpts(addr, spec, MasterOptions{
			Obs:            obs.New(),
			HTTPAddr:       "127.0.0.1:0",
			OnHTTP:         func(a string) { httpAddr <- a },
			ScrapeInterval: 2 * time.Millisecond,
			TraceIDBase:    1 << 32,
		})
		masterDone <- err
	}()

	base := "http://" + <-httpAddr
	fetch := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	// Poll /metrics until a worker's federated series and the Director's
	// derived round-latency gauge appear. Bounded: training runs 200 rounds,
	// far longer than a few scrape ticks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := fetch("/metrics")
		if strings.Contains(body, `cosmic_node_rounds_total{node="1"}`) &&
			strings.Contains(body, `cosmic_cluster_node_round_seconds{node="1"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("federated series never appeared:\n%s", body)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	roster := fetch("/cluster")
	for _, want := range []string{`"id":0`, `"id":1`, `"id":2`, `"stragglers"`} {
		if !strings.Contains(roster, want) {
			t.Errorf("/cluster missing %s:\n%s", want, roster)
		}
	}

	if err := <-masterDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("loss %g -> %g", res.InitialLoss, res.FinalLoss)
	}
}

// runDirector runs the Director over loopback TCP with spec.Nodes-1
// workers joining as goroutines, exactly as separate cosmic-node processes
// would (the worker code path is identical; only the process boundary
// differs).
func runDirector(t *testing.T, spec Spec) *Result {
	t.Helper()
	addr := freeAddr(t)
	var wg sync.WaitGroup
	for i := 1; i < spec.Nodes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(addr); err != nil {
				t.Error(err)
			}
		}()
	}
	res, err := RunMaster(addr, spec)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return res
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
