package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/ml"
)

// TestOrderedFoldArrivalOrderInvariant: the accumulated sum is a pure
// function of the member set — bitwise identical no matter how chunk
// arrivals interleave — and every chunk index completes exactly once with
// the full member weight.
func TestOrderedFoldArrivalOrderInvariant(t *testing.T) {
	const n, words = 1000, 64
	members := []uint32{2, 5, 9}
	vecs := make(map[uint32][]float64, len(members))
	rng := rand.New(rand.NewSource(3))
	for _, id := range members {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vecs[id] = v
	}

	run := func(shuffleSeed int64) []float64 {
		ab := newAggBuffer(t, n, words, members...)
		completed := make(map[int]float64)
		ab.SetOnComplete(func(idx int, span []float64, weight float64) {
			if _, dup := completed[idx]; dup {
				t.Errorf("chunk %d completed twice", idx)
			}
			completed[idx] = weight
		})
		var chunks []Chunk
		for _, id := range members {
			chunks = append(chunks, splitChunks(0, id, vecs[id], 1, words)...)
		}
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(chunks), func(i, j int) {
			chunks[i], chunks[j] = chunks[j], chunks[i]
		})
		for _, c := range chunks {
			if err := ab.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		ok, err := ab.WaitComplete(time.Second, nil)
		if err != nil || !ok {
			t.Fatalf("WaitComplete: %v %v", ok, err)
		}
		if len(completed) != ab.ChunkCount() {
			t.Fatalf("%d chunk indexes completed, want %d", len(completed), ab.ChunkCount())
		}
		for idx, w := range completed {
			if w != float64(len(members)) {
				t.Fatalf("chunk %d completed with weight %g", idx, w)
			}
		}
		sum, w := ab.Sum()
		if w != float64(len(members)) {
			t.Fatalf("total weight %g", w)
		}
		return sum
	}

	want := run(0)
	for seed := int64(1); seed <= 8; seed++ {
		got := run(seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sum[%d] = %.17g, want bitwise %.17g", seed, i, got[i], want[i])
			}
		}
	}
}

// TestOrderedFoldRejectsOffBoundaryChunks: the fold insists on the fixed
// boundaries the determinism argument depends on.
func TestOrderedFoldRejectsOffBoundaryChunks(t *testing.T) {
	ab := newAggBuffer(t, 256, 64, 1)
	if err := ab.Add(Chunk{From: 1, Offset: 32, Data: make([]float64, 64)}); err == nil {
		t.Error("off-boundary offset accepted")
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 32)}); err == nil {
		t.Error("short non-tail chunk accepted")
	}
	if err := ab.Add(Chunk{From: 9, Offset: 0, Data: make([]float64, 64)}); err == nil {
		t.Error("unknown member accepted")
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 64)}); err != nil {
		t.Errorf("well-formed chunk rejected: %v", err)
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 64)}); err == nil {
		t.Error("duplicate chunk accepted")
	}
}

// TestOrderedFoldAllocs: the local-contribution path — cutting a partial
// into aliasing chunks and folding them in order — must not allocate per
// element or per chunk (at most one object per contribution).
func TestOrderedFoldAllocs(t *testing.T) {
	const n, words = 1 << 14, 1024
	ab := newAggBuffer(t, n, words, 0)
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = float64(i)
	}
	avg := testing.AllocsPerRun(100, func() {
		ab.Reset(0)
		if err := CutChunks(0, 0, vec, 1, words, ab.Add); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1.5 {
		t.Errorf("local fold allocates %.1f objects per contribution, want <= 1", avg)
	}
}

// jitterEngine delays each partial by a pseudo-random amount so member
// contributions arrive at the Sigmas in shuffled order, then defers to the
// wrapped engine. The math stays untouched — only timing moves.
type jitterEngine struct {
	inner Engine
	mu    sync.Mutex
	rng   *rand.Rand
}

func (e *jitterEngine) Name() string { return "jitter+" + e.inner.Name() }

func (e *jitterEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	e.mu.Lock()
	d := time.Duration(e.rng.Intn(2500)) * time.Microsecond
	e.mu.Unlock()
	time.Sleep(d)
	return e.inner.PartialUpdate(model, shard)
}

// TestStreamingChunkSizesBitwise is the streaming pipeline's differential
// test: across two model families, chunk boundaries from many chunks per
// contribution down to one chunk holding the whole vector, and shuffled
// member arrival orders, a hierarchical cluster must train to the
// bitwise-identical model. The ordered member-rank fold is what makes this
// hold exactly, not just to floating-point tolerance.
func TestStreamingChunkSizesBitwise(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 3
	algs := []struct {
		name   string
		alg    ml.Algorithm
		labels int
	}{
		{"linreg", &ml.LinearRegression{M: 777}, 1},
		{"mlp", &ml.MLP{In: 9, Hid: 7, Out: 2}, 2},
	}
	for _, tc := range algs {
		t.Run(tc.name, func(t *testing.T) {
			alg := tc.alg
			rng := rand.New(rand.NewSource(17))
			shards := make([][]ml.Sample, nodes)
			for n := range shards {
				shards[n] = make([]ml.Sample, 8)
				for i := range shards[n] {
					x := make([]float64, alg.FeatureSize())
					for j := range x {
						x[j] = rng.NormFloat64()
					}
					y := make([]float64, tc.labels)
					for j := range y {
						y[j] = rng.NormFloat64()
					}
					shards[n][i] = ml.Sample{X: x, Y: y}
				}
			}
			model := alg.InitModel(rand.New(rand.NewSource(5)))

			run := func(chunkWords int, delaySeed int64) []float64 {
				cl, err := Launch(ClusterOptions{
					Nodes: nodes, Groups: groups,
					Engines: func(id int) Engine {
						return &jitterEngine{
							inner: &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage},
							rng:   rand.New(rand.NewSource(delaySeed + int64(id))),
						}
					},
					Shards:     func(id int) []ml.Sample { return shards[id] },
					ModelSize:  alg.ModelSize(),
					Agg:        dsl.AggAverage,
					LR:         0.01,
					MiniBatch:  nodes * 4,
					ChunkWords: chunkWords,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				got, _, err := cl.Train(append([]float64(nil), model...), rounds)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Shutdown(); err != nil {
					t.Fatal(err)
				}
				return got
			}

			want := run(64, 100)
			if size := alg.ModelSize(); size > 1024 {
				t.Fatalf("model of %d words does not fit the one-chunk variant", size)
			}
			variants := []struct {
				label      string
				chunkWords int
				delaySeed  int64
			}{
				{"chunk-64/reshuffled", 64, 900},
				{"chunk-1024/one-chunk", 1024, 300},
			}
			for _, v := range variants {
				got := run(v.chunkWords, v.delaySeed)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: w[%d] = %.17g, want bitwise %.17g",
							v.label, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestChunkWordsValidation pins the power-of-two rule shared by every
// config surface.
func TestChunkWordsValidation(t *testing.T) {
	for _, w := range []int{0, 1, 2, 64, 4096, 1 << 20} {
		if !ValidChunkWords(w) {
			t.Errorf("ValidChunkWords(%d) = false", w)
		}
	}
	for _, w := range []int{-1, -64, 3, 63, 100, 4095} {
		if ValidChunkWords(w) {
			t.Errorf("ValidChunkWords(%d) = true", w)
		}
	}
	_, err := Launch(ClusterOptions{
		Nodes: 2, Groups: 1,
		Engines:    func(int) Engine { return &RefEngine{Alg: &ml.LinearRegression{M: 4}, Threads: 1} },
		Shards:     func(int) []ml.Sample { return nil },
		ModelSize:  4,
		ChunkWords: 100,
	})
	if err == nil {
		t.Fatal("non-power-of-two ChunkWords accepted")
	}
}

// TestSigmaRejectsUnchunkedContribution: contributions travel only as
// fixed-boundary chunk frames. A whole-vector MsgPartial or
// MsgGroupAggregate sent over a raw connection to a running Sigma folds
// nothing: the node fails with an error naming the frame type and the
// sender, and the round it was waiting on ends with that error instead of
// hanging.
func TestSigmaRejectsUnchunkedContribution(t *testing.T) {
	const rogue = 7
	alg := &ml.LinearRegression{M: 4}
	size := alg.ModelSize()
	for _, typ := range []cosmicnet.MsgType{cosmicnet.MsgPartial, cosmicnet.MsgGroupAggregate} {
		t.Run(typ.String(), func(t *testing.T) {
			master, err := StartNode(NodeConfig{
				ID: 0, Role: RoleMasterSigma, MemberIDs: []uint32{0, rogue},
				Engine:    &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage},
				ModelSize: size, Agg: dsl.AggAverage, LR: 0.01, ShardBatch: 1,
				DiagDir: t.TempDir(),
			}, []ml.Sample{{X: make([]float64, alg.M), Y: []float64{1}}})
			if err != nil {
				t.Fatal(err)
			}
			defer master.Close()
			conn, err := cosmicnet.Dial(master.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgHello, From: rogue}); err != nil {
				t.Fatal(err)
			}
			master.WaitMembers(1)

			done := make(chan error, 1)
			go func() {
				_, _, err := master.DriveTraining(DriveConfig{MiniBatch: 2}, make([]float64, size), 1)
				done <- err
			}()
			var model cosmicnet.Frame
			if err := conn.Recv(&model); err != nil || model.Type != cosmicnet.MsgModel {
				t.Fatalf("waiting for the model broadcast: %v %v", model.Type, err)
			}
			if err := conn.Send(&cosmicnet.Frame{
				Type: typ, Seq: model.Seq, From: rogue, Weight: 1, Payload: make([]float64, size),
			}); err != nil {
				t.Fatal(err)
			}

			select {
			case err := <-done:
				if err == nil {
					t.Fatal("round completed on an unchunked contribution")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the Sigma hung on an unchunked contribution")
			}
			want := fmt.Sprintf("unchunked %v frame from %d", typ, rogue)
			if err := master.Err(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("node error %v, want one containing %q", err, want)
			}
			present, _, missing := master.agg.QuorumStatus()
			if slices.Contains(present, rogue) || !slices.Contains(missing, rogue) {
				t.Fatalf("census present=%v missing=%v: the unchunked frame was folded", present, missing)
			}
		})
	}
}

// TestGroupSigmaFailureEndsShutdown: a group Sigma that fails its run (here
// on an unchunked contribution injected over a raw connection) closes its
// member connections, so its Deltas error out and Cluster.Shutdown returns
// the failure instead of waiting forever on Deltas that wait on the Sigma.
func TestGroupSigmaFailureEndsShutdown(t *testing.T) {
	const rogue = 99
	alg := &ml.LinearRegression{M: 8}
	size := alg.ModelSize()
	cl, err := Launch(ClusterOptions{
		Nodes: 4, Groups: 2,
		Engines: func(int) Engine {
			return &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage}
		},
		Shards: func(int) []ml.Sample {
			return []ml.Sample{{X: make([]float64, alg.M), Y: []float64{1}}}
		},
		ModelSize: size, Agg: dsl.AggAverage, LR: 0.01,
		DiagDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var sigma *Node
	for _, n := range cl.Nodes() {
		if n.cfg.Role == RoleGroupSigma {
			sigma = n
		}
	}
	if sigma == nil {
		t.Fatal("no group Sigma in a 2-group cluster")
	}
	conn, err := cosmicnet.Dial(sigma.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&cosmicnet.Frame{
		Type: cosmicnet.MsgPartial, From: rogue, Weight: 1, Payload: make([]float64, size),
	}); err != nil {
		t.Fatal(err)
	}
	// Rounds run until one reaches the group Sigma after its reader failed
	// on the frame; that round fails there, which ends the Sigma's run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := cl.Train(make([]float64, size), 1); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the group Sigma kept folding after an unchunked contribution")
		}
	}
	done := make(chan error, 1)
	go func() { done <- cl.Shutdown() }()
	select {
	case err := <-done:
		// The Sigma's own error or its Deltas' lost upstream, whichever
		// exits first.
		if err == nil {
			t.Fatal("Shutdown returned nil after a group Sigma failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown blocked on the failed group Sigma's Deltas")
	}
}
