package ml

import (
	"fmt"
	"sync"

	"repro/internal/dsl"
)

// SGDConfig parameterizes a stochastic-gradient-descent run.
type SGDConfig struct {
	LearningRate float64
	// MiniBatch is the number of samples processed (system-wide) between
	// aggregation steps of the parallel variants.
	MiniBatch int
	// Aggregator selects parallelized SGD (average of partial model
	// updates, Zinkevich et al.) or batched gradient descent (sum of
	// partial gradients, Dekel et al.).
	Aggregator dsl.AggregatorKind
}

// SGDStep performs one classic SGD update in place: θ ← θ − μ·∇f(θ, s).
func SGDStep(a Algorithm, model []float64, s Sample, lr float64, scratch []float64) {
	a.Gradient(model, s, scratch)
	AXPY(-lr, scratch, model)
}

// scratchPool recycles gradient scratch vectors, so a partial computation
// allocates only the vector it returns. Gradient overwrites every element
// of its scratch, so recycled contents never leak into a result.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled vector of length n (contents undefined). The
// caller must hand it back with putScratch.
//
//cosmic:owns
func getScratch(n int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

func putScratch(sp *[]float64) { scratchPool.Put(sp) }

// LocalSGD runs sequential SGD over samples starting from a copy of model
// and returns the updated parameters: the per-worker computation of
// Equation 3a. The result is freshly allocated and owned by the caller.
func LocalSGD(a Algorithm, model []float64, samples []Sample, lr float64) []float64 {
	local := make([]float64, len(model))
	copy(local, model)
	sp := getScratch(len(model))
	defer putScratch(sp)
	for _, s := range samples {
		SGDStep(a, local, s, lr, *sp)
	}
	return local
}

// AccumulateGradients sums per-sample gradients at a fixed model over
// samples, the per-worker computation of batched gradient descent. The
// result is freshly allocated and owned by the caller.
func AccumulateGradients(a Algorithm, model []float64, samples []Sample) []float64 {
	acc := make([]float64, len(model))
	sp := getScratch(len(model))
	defer putScratch(sp)
	for _, s := range samples {
		a.Gradient(model, s, *sp)
		AXPY(1, *sp, acc)
	}
	return acc
}

// Partition splits samples into n contiguous, nearly equal parts, matching
// how CoSMIC sub-partitions a node's data across worker threads.
func Partition(samples []Sample, n int) [][]Sample {
	if n <= 0 {
		panic(fmt.Sprintf("ml: partition into %d parts", n))
	}
	parts := make([][]Sample, n)
	for i := range parts {
		lo := i * len(samples) / n
		hi := (i + 1) * len(samples) / n
		parts[i] = samples[lo:hi]
	}
	return parts
}

// AggregateModels combines per-worker results according to the aggregation
// operator. For AggAverage the inputs are updated models and the result is
// their mean (Equation 3b). For AggSum the inputs are accumulated gradients
// and the result is θ − μ/b · Σ gradients.
func AggregateModels(cfg SGDConfig, base []float64, partials [][]float64) []float64 {
	out := make([]float64, len(base))
	switch cfg.Aggregator {
	case dsl.AggAverage:
		averageInto(out, partials)
	case dsl.AggSum:
		copy(out, base)
		scale := -cfg.LearningRate
		if cfg.MiniBatch > 0 {
			scale /= float64(cfg.MiniBatch)
		}
		for _, p := range partials {
			AXPY(scale, p, out)
		}
	}
	return out
}

// AverageInPlace averages equal-length partials into partials[0] and
// returns it, bit for bit the AggAverage result of AggregateModels, without
// a second model-sized vector. partials[1:] are left unchanged.
func AverageInPlace(partials [][]float64) []float64 {
	averageInto(partials[0], partials)
	return partials[0]
}

// averageInto writes the mean of partials into dst, which may alias
// partials[0] but no other partial. Each element is ((0 + p0) + p1 + …) ·
// (1/n) in exactly that order, so a lone -0 averages to +0 and the bits of
// every trained model stay fixed.
func averageInto(dst []float64, partials [][]float64) {
	inv := 1 / float64(len(partials))
	last := len(partials) - 1
	p0 := partials[0][:len(dst)]
	if last == 0 {
		for i, v := range p0 {
			dst[i] = (0 + v) * inv
		}
		return
	}
	for i, v := range p0 {
		dst[i] = 0 + v
	}
	for _, p := range partials[1:last] {
		p = p[:len(dst)]
		for i, v := range p {
			dst[i] += v
		}
	}
	pn := partials[last][:len(dst)]
	for i, v := range pn {
		dst[i] = (dst[i] + v) * inv
	}
}

// ParallelSGDBatch performs one mini-batch of parallel SGD across workers
// worker partitions and returns the aggregated model. It is the single-node,
// in-memory equivalent of what the distributed runtime computes across
// accelerator threads and cluster nodes; the runtime's integration tests
// check equivalence against it.
func ParallelSGDBatch(a Algorithm, cfg SGDConfig, model []float64, batch []Sample, workers int) []float64 {
	parts := Partition(batch, workers)
	partials := make([][]float64, len(parts))
	for i, part := range parts {
		switch cfg.Aggregator {
		case dsl.AggAverage:
			partials[i] = LocalSGD(a, model, part, cfg.LearningRate)
		case dsl.AggSum:
			partials[i] = AccumulateGradients(a, model, part)
		}
	}
	if cfg.Aggregator == dsl.AggAverage {
		// The partials are this call's own vectors: average into the first.
		return AverageInPlace(partials)
	}
	return AggregateModels(cfg, model, partials)
}

// TrainResult reports a training run's loss trajectory.
type TrainResult struct {
	Model []float64
	// LossPerEpoch is the mean training loss measured after each epoch.
	LossPerEpoch []float64
}

// Train runs epochs of parallel SGD over the dataset with the given number
// of workers, aggregating every cfg.MiniBatch samples.
func Train(a Algorithm, cfg SGDConfig, model []float64, data []Sample, workers, epochs int) TrainResult {
	cur := make([]float64, len(model))
	copy(cur, model)
	res := TrainResult{}
	batch := cfg.MiniBatch
	if batch <= 0 || batch > len(data) {
		batch = len(data)
	}
	for e := 0; e < epochs; e++ {
		for lo := 0; lo < len(data); lo += batch {
			hi := lo + batch
			if hi > len(data) {
				hi = len(data)
			}
			cur = ParallelSGDBatch(a, cfg, cur, data[lo:hi], workers)
		}
		res.LossPerEpoch = append(res.LossPerEpoch, MeanLoss(a, cur, data))
	}
	res.Model = cur
	return res
}
