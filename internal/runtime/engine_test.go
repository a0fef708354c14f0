package runtime

import (
	goruntime "runtime"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ml"
)

// TestRefEnginePartialAllocBytes: in steady state an averaging, one-thread
// reference partial allocates about one model's worth of bytes per call —
// the partial it returns — and no gradient scratch or averaging copy.
func TestRefEnginePartialAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	const m, calls = 1 << 14, 64
	alg := &ml.LinearRegression{M: m}
	e := &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage}
	model := make([]float64, alg.ModelSize())
	x := make([]float64, m)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	shard := []ml.Sample{{X: x, Y: []float64{1}}}
	for i := 0; i < 4; i++ {
		if _, err := e.PartialUpdate(model, shard); err != nil {
			t.Fatal(err)
		}
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := e.PartialUpdate(model, shard); err != nil {
			t.Fatal(err)
		}
	}
	goruntime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	modelBytes := float64(8 * alg.ModelSize())
	if perCall > 1.1*modelBytes {
		t.Errorf("PartialUpdate allocates %.0f bytes per call, want at most 1.1 × the model's %.0f", perCall, modelBytes)
	}
}
