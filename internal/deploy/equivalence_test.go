package deploy

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	cosmic "repro"
	"repro/internal/cosmicnet"
	"repro/internal/cosmicnet/chaos"
	"repro/internal/dataset"
	"repro/internal/runtime"
)

// TestOneSpecOneModel: one Spec trains the same model, bit for bit, in
// every deployment — the Director with workers joining over loopback TCP,
// runtime.Launch from the Spec's per-node engines and shards, the same
// over a fault-free chaos fabric, and cosmic.Train on the Spec's whole
// task. The chunk boundary cuts the model into three chunks, so the
// streamed fold is exercised too. The Director also reports its losses
// over the whole task, as cosmic.Train does.
func TestOneSpecOneModel(t *testing.T) {
	for _, tc := range []struct {
		name          string
		nodes, groups int
	}{{"flat", 3, 1}, {"two-group", 5, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Nodes: tc.nodes, Groups: tc.groups,
				Benchmark: "tumor", Scale: 0.02, Samples: 600, Seed: 4,
				MiniBatch: 60, Rounds: 20, Threads: 2, Average: true,
				ChunkWords: 16,
			}
			opts, alg, _, err := spec.options(nil)
			if err != nil {
				t.Fatal(err)
			}
			if chunks := (opts.ModelSize + spec.ChunkWords - 1) / spec.ChunkWords; chunks < 2 {
				t.Fatalf("%d-word model is %d chunk(s) at ChunkWords %d, want at least 2", opts.ModelSize, chunks, spec.ChunkWords)
			}
			model0 := alg.InitModel(rand.New(rand.NewSource(spec.Seed)))

			director := runDirector(t, spec)
			launched := trainLaunched(t, opts, model0, spec.Rounds)
			nw := chaos.NewNetwork(nil, nil)
			opts.Transports = func(id int) cosmicnet.Transport { return nw.Endpoint(strconv.Itoa(id)) }
			fabric := trainLaunched(t, opts, model0, spec.Rounds)

			bench, err := dataset.ByName(spec.Benchmark)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := cosmic.Train(alg, bench.Generate(alg, spec.Samples, spec.Seed), model0, cosmic.ClusterConfig{
				Nodes: spec.Nodes, Groups: spec.Groups, Threads: spec.Threads,
				MiniBatch: spec.MiniBatch, LearningRate: opts.LR, Average: spec.Average,
				Rounds: spec.Rounds, ChunkWords: spec.ChunkWords,
			})
			if err != nil {
				t.Fatal(err)
			}

			if director.FinalLoss >= director.InitialLoss {
				t.Fatalf("the Director's run did not learn: loss %g -> %g", director.InitialLoss, director.FinalLoss)
			}
			if director.InitialLoss != lib.InitialLoss || director.FinalLoss != lib.FinalLoss {
				t.Errorf("Director loss %g -> %g, cosmic.Train %g -> %g",
					director.InitialLoss, director.FinalLoss, lib.InitialLoss, lib.FinalLoss)
			}
			for _, run := range []struct {
				name  string
				model []float64
			}{{"runtime.Launch", launched}, {"chaos fabric", fabric}, {"cosmic.Train", lib.Model}} {
				if len(run.model) != len(director.Model) {
					t.Errorf("%s: %d-word model, the Director's has %d", run.name, len(run.model), len(director.Model))
					continue
				}
				for i, v := range run.model {
					if math.Float64bits(v) != math.Float64bits(director.Model[i]) {
						t.Errorf("%s: model[%d] = %v, the Director's %v", run.name, i, v, director.Model[i])
						break
					}
				}
			}
		})
	}
}

// trainLaunched trains model0 for the given rounds on an in-process cluster
// and returns the trained model.
func trainLaunched(t *testing.T, opts runtime.ClusterOptions, model0 []float64, rounds int) []float64 {
	t.Helper()
	cl, err := runtime.Launch(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	model, _, err := cl.Train(model0, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return model
}
