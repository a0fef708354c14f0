package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	cosmic "repro"
	"repro/internal/accel"
	"repro/internal/cosmicnet"
	"repro/internal/dataset"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/runtime"
)

// Training clusters have 4 nodes in 2 groups: a master Sigma, one group
// Sigma and two Deltas, which fits a 2-vCPU machine without the nodes
// queueing for a core most of each round.
const (
	clusterNodes  = 4
	clusterGroups = 2
	// setupRepeats is how many times a run sets a cluster up from scratch
	// (compile, where the workload has one, and Launch); setup_s is their
	// median. The first checkedLaunches and the last also train one batch,
	// and must train the same model bit for bit.
	setupRepeats    = 15
	checkedLaunches = 2
	// batchRounds is the round count of every Cluster.Train call. Every
	// call trains from the initial model, and with these shard sizes
	// every node's shard cursor is back at 0 after a batch, so each batch
	// does the same arithmetic and ends in the same model, however long
	// the run lasts. Trained on for thousands of rounds, the model's values,
	// and with them the cost of a round (denormal floats, for one, slow
	// float arithmetic), would depend on how long the run had lasted and so
	// on how fast the machine was.
	batchRounds = 64
)

// trainSpec is one training workload.
type trainSpec struct {
	alg     ml.Algorithm
	agg     dsl.AggregatorKind
	lr      float64
	data    []ml.Sample
	model0  []float64
	perNode int // samples per node per round
	// compile builds the accelerator program (nil: reference engine); it
	// is part of setup.
	compile func() (*cosmic.Program, error)
	engine  func(prog *cosmic.Program) runtime.Engine
	layer   string // span name of the engine call
	// lossCeiling bounds the final ÷ initial mean loss after one batch.
	lossCeiling float64
}

// runLinregWide: a 65535-word linear regression whose rounds are mostly
// wire and fold work (see README.md).
func runLinregWide(r *run) error {
	const m, samplesPerNode = 65535, 8
	alg := &ml.LinearRegression{M: m}
	bench := dataset.Benchmark{Name: "linreg-wide", Family: dataset.FamilyLinReg}
	lr := bench.DefaultLR(alg)
	sp := trainSpec{
		alg: alg, agg: dsl.AggAverage, lr: lr,
		data: bench.Generate(alg, samplesPerNode*clusterNodes, r.seed), model0: make([]float64, alg.ModelSize()),
		perNode: 1,
		engine: func(*cosmic.Program) runtime.Engine {
			return &runtime.RefEngine{Alg: alg, Threads: 1, LR: lr, Agg: dsl.AggAverage}
		},
		layer:       "ml.partial",
		lossCeiling: 0.5,
	}
	r.params = map[string]any{
		"algorithm": "linreg", "model_words": alg.ModelSize(), "chunks": (alg.ModelSize() + 4095) / 4096,
		"nodes": clusterNodes, "groups": clusterGroups, "engine": "reference", "threads": 1,
		"aggregator": "average", "samples_per_node_per_round": 1, "samples": len(sp.data),
		"lr": lr, "batch_rounds": batchRounds, "loss_ceiling": sp.lossCeiling,
	}
	return runTraining(r, sp)
}

// runMnistAccel: mnist at scale 0.05 trained on the cycle-level simulator
// of its UltraScale+ accelerator (see README.md).
func runMnistAccel(r *run) error {
	const scale, miniBatch = 0.05, 32
	bench, err := cosmic.BenchmarkByName("mnist")
	if err != nil {
		return err
	}
	alg := bench.Algorithm(scale)
	lr := bench.DefaultLR(alg)
	sp := trainSpec{
		alg: alg, agg: dsl.AggSum, lr: lr,
		data:    bench.Generate(alg, 2*miniBatch*clusterNodes, r.seed),
		model0:  alg.InitModel(rand.New(rand.NewSource(r.seed))),
		perNode: miniBatch,
		compile: func() (*cosmic.Program, error) {
			return cosmic.Compile(alg.DSLSource(), alg.DSLParams(), cosmic.UltraScalePlus, cosmic.Options{MiniBatch: miniBatch})
		},
		engine: func(prog *cosmic.Program) runtime.Engine {
			return &runtime.AccelEngine{Alg: alg, Prog: prog.Schedule(), LR: lr, Agg: dsl.AggSum}
		},
		layer:       "accel.batch",
		lossCeiling: 0.9,
	}
	r.params = map[string]any{
		"algorithm": "mnist", "scale": scale, "model_words": alg.ModelSize(), "chip": "UltraScale+",
		"compile_minibatch": miniBatch, "nodes": clusterNodes, "groups": clusterGroups,
		"engine": "accelerator-sim", "aggregator": "sum", "samples_per_node_per_round": miniBatch,
		"samples": len(sp.data), "lr": lr, "batch_rounds": batchRounds, "loss_ceiling": sp.lossCeiling,
	}
	return runTraining(r, sp)
}

// phase is one measured stretch of training: set-ups, checked batches,
// warm-up, then timed batches on the last cluster launched.
type phase struct {
	setupS    []float64
	launchMs  []float64
	model     []float64 // after one batch from the initial model
	batches   []batch
	rounds    []time.Duration // every timed round
	mem       memDelta
	sentBytes int64
	net       netSnap
	excluded  int
	cycles    int64 // simulated cycles in the timed rounds, all nodes
	timedFrom int64 // recorder time the timed rounds began
	prog      *cosmic.Program
}

// runTraining measures an untraced phase and, on a traced run, a traced
// phase after it, each for half the seconds; the traced phase gives the
// per-layer metrics.
func runTraining(r *run, sp trainSpec) error {
	seconds := r.seconds
	if r.trace {
		seconds /= 2
	}
	plain, err := trainPhase(r, sp, seconds, false)
	if err != nil {
		return err
	}
	perRound := float64(sp.perNode * clusterNodes)
	n := float64(len(plain.rounds))
	_, wall := opsOf(plain.batches)
	scaled, scaledWall := opsOf(unstolen(plain.batches))
	p50, throughput := percentileMs(scaled, 50), n*perRound/scaledWall
	initial := ml.MeanLoss(sp.alg, sp.model0, sp.data)
	final := ml.MeanLoss(sp.alg, plain.model, sp.data)
	vsRef := final / ml.MeanLoss(sp.alg, referenceModel(sp), sp.data)
	r.opsMs = durationsMs(plain.rounds)
	r.logBatches(plain.batches)
	r.outputDigest = digest(plain.model)
	r.show("round_p50_ms", percentileMs(plain.rounds, 50), "ms")
	r.show("round_p99_ms", percentileMs(plain.rounds, 99), "ms")
	r.show("samples_per_s", n*perRound/wall, "samples/s")
	r.show("timed_rounds", n, "count")
	r.show("steal_pct", stealPct(plain.batches), "pct")
	r.show("unstolen_round_p50_ms", p50, "ms")
	r.show("unstolen_samples_per_s", throughput, "samples/s")
	r.show("loss_ratio", final/initial, "ratio")
	r.show("loss_vs_reference", vsRef, "ratio")
	r.show("setup_s", median(plain.setupS), "s")
	r.show("alloc_mb_per_op", plain.mem.allocMB/n, "MB")
	r.show("cpu_ms_per_op", plain.mem.cpuMs/n, "ms")
	r.show("net_sent_mb_per_round", float64(plain.sentBytes)/1e6/n, "MB")
	if plain.cycles > 0 {
		r.show("cycles_per_vector", float64(plain.cycles)/(n*perRound), "cycles")
	}
	if !(final/initial < sp.lossCeiling) {
		r.fail("loss ratio %.6g after %d rounds is not below the ceiling %g", final/initial, batchRounds, sp.lossCeiling)
	}
	if !r.trace {
		r.set("latency_ms", p50, "ms")
		r.set("throughput_per_s", throughput, "1/s")
		r.set("loss_vs_reference", vsRef, "ratio")
		r.set("setup_s", median(plain.setupS), "s")
		r.set("alloc_mb_per_op", plain.mem.allocMB/n, "MB")
		return nil
	}

	traced, err := trainPhase(r, sp, seconds, true)
	if err != nil {
		return err
	}
	if digest(traced.model) != digest(plain.model) {
		r.fail("traced cluster trained model %016x, untraced %016x", digest(traced.model), digest(plain.model))
	}
	tn := float64(len(traced.rounds))
	tscaled, _ := opsOf(unstolen(traced.batches))
	r.set("runtime.launch_ms", median(traced.launchMs), "ms")
	r.set("runtime.excluded_rounds", float64(traced.excluded), "count")
	r.set("cosmicnet.bytes_per_round", float64(traced.net.bytes)/tn, "bytes")
	r.set("cosmicnet.writes_per_round", float64(traced.net.writes)/tn, "count")
	r.set("cosmicnet.write_ms_per_round", float64(traced.net.writeNs)/1e6/tn, "ms")
	if traced.net.bytes != traced.sentBytes {
		r.fail("counting transport saw %d bytes written, TrainStats %d sent", traced.net.bytes, traced.sentBytes)
	}
	r.set("gc.cycles_per_op", traced.mem.gcCycles/tn, "count")
	r.set("gc.pause_ms_per_op", traced.mem.pauseMs/tn, "ms")
	r.set("trace.overhead_pct", 100*(percentileMs(tscaled, 50)/p50-1), "pct")
	roundPhases(r, sp, traced)
	if traced.cycles > 0 {
		util, err := probeUtilization(sp, traced)
		if err != nil {
			return err
		}
		r.set("accel.utilization", util, "ratio")
		r.set("accel.cycles_per_vector", float64(traced.cycles)/(tn*perRound), "cycles")
	}
	return nil
}

// trainPhase launches setupRepeats clusters, one after another, and times
// each set-up. The first checkedLaunches and the last train one batch,
// which must end in the same model bit for bit. The last cluster is then
// warmed up and timed for the given seconds.
func trainPhase(r *run, sp trainSpec, seconds float64, traced bool) (*phase, error) {
	ph := &phase{}
	shards := ml.Partition(sp.data, clusterNodes)
	var nc netCounters
	var cl *runtime.Cluster
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	var tr *trainer
	var engines []runtime.Engine
	setupStart, setupSteal := time.Now(), readSteal()
	for k := 0; k < setupRepeats; k++ {
		if cl != nil {
			if err := cl.Shutdown(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
			cl.Close()
			cl = nil
		}
		start := time.Now()
		var prog *cosmic.Program
		if sp.compile != nil {
			var err error
			if prog, err = sp.compile(); err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
		}
		eng := make([]runtime.Engine, clusterNodes)
		for i := range eng {
			eng[i] = sp.engine(prog)
			if traced {
				eng[i] = &tracedEngine{inner: eng[i], layer: sp.layer, node: i, rec: r.rec}
			}
		}
		opts := runtime.ClusterOptions{
			Nodes: clusterNodes, Groups: clusterGroups,
			Engines:   func(id int) runtime.Engine { return eng[id] },
			Shards:    func(id int) []ml.Sample { return shards[id] },
			ModelSize: sp.alg.ModelSize(), Agg: sp.agg, LR: sp.lr,
			MiniBatch: sp.perNode * clusterNodes,
		}
		if traced {
			opts.Transports = func(int) cosmicnet.Transport { return countingTransport{c: &nc} }
		}
		launchStart := r.rec.now()
		c, err := runtime.Launch(opts)
		if err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
		ph.setupS = append(ph.setupS, since(start))
		cl, ph.prog, engines = c, prog, eng
		if traced {
			s := span{Name: "runtime.launch", Start: launchStart, End: r.rec.now(), Parent: -1, Op: -1, Node: -1}
			r.rec.add(s)
			ph.launchMs = append(ph.launchMs, float64(s.dur())/1e6)
		}
		if k >= checkedLaunches && k < setupRepeats-1 {
			continue
		}
		tr = &trainer{c: c, model0: sp.model0, traced: traced, rec: r.rec}
		model, _, err := tr.batch(r, ph)
		if err != nil {
			return nil, fmt.Errorf("first batch: %w", err)
		}
		if k == 0 {
			ph.model = model
		}
	}
	// Set-ups take a few milliseconds each, too short to read steal time
	// against, so each is scaled by the share stolen over the whole set-up
	// stretch, as timed batches are (see unstolen).
	keep := 1 - batch{wall: since(setupStart), steal: readSteal() - setupSteal}.stealShare()
	for i := range ph.setupS {
		ph.setupS[i] *= keep
	}
	if err := timeRounds(r, ph, tr, engines, &nc, seconds); err != nil {
		return nil, err
	}
	if ph.excluded > 0 {
		r.fail("%d rounds were folded without every member", ph.excluded)
	}
	if err := cl.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return ph, nil
}

// timeRounds warms the cluster up untimed, then runs timed batches until
// seconds have passed, taking every counter as a delta over the timed
// batches: TrainStats.NetworkSentBytes, for one, counts from Launch, not
// per call.
func timeRounds(r *run, ph *phase, tr *trainer, engines []runtime.Engine, nc *netCounters, seconds float64) error {
	warm := time.Now()
	for since(warm) < warmupSeconds(seconds) {
		if _, _, err := tr.batch(r, ph); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	cyclesBefore := accelCycles(engines)
	sentBefore, _ := tr.c.NetworkBytes()
	netBefore := nc.snap()
	ph.timedFrom = r.rec.now()
	mem := readMem()
	start := time.Now()
	for since(start) < seconds {
		b, err := timeBatch(func() ([]time.Duration, error) {
			_, stats, err := tr.batch(r, ph)
			return stats.RoundDurations, err
		})
		if err != nil {
			return fmt.Errorf("timed batch: %w", err)
		}
		ph.batches = append(ph.batches, b)
		ph.rounds = append(ph.rounds, b.ops...)
	}
	ph.mem = mem.to(readMem())
	sentAfter, _ := tr.c.NetworkBytes()
	ph.sentBytes = sentAfter - sentBefore
	ph.net = nc.snap().minus(netBefore)
	ph.cycles = accelCycles(engines) - cyclesBefore
	return nil
}

// warmupSeconds is the untimed warm-up before a timed phase: in a fresh
// process the first thousand-odd rounds run slower.
func warmupSeconds(seconds float64) float64 { return math.Min(3, seconds/4) }

// trainer drives one cluster and tracks the round number since Launch.
type trainer struct {
	c      *runtime.Cluster
	model0 []float64
	round  int
	traced bool
	rec    *recorder
}

// batch trains batchRounds rounds from the initial model in one
// Cluster.Train call and counts them as operations. The model must be
// the phase's first batch's, bit for bit; a batch that ends elsewhere
// counts as failed rounds. On a traced run each round's span is recorded
// from the call's start plus the cumulative RoundDurations.
func (t *trainer) batch(r *run, ph *phase) ([]float64, runtime.TrainStats, error) {
	start := t.rec.now()
	model, stats, err := t.c.Train(t.model0, batchRounds)
	if err != nil {
		r.op(false)
		return nil, stats, err
	}
	ph.excluded += stats.ExcludedRounds
	ok := ph.model == nil || digest(model) == digest(ph.model)
	if !ok {
		r.fail("a batch trained model %016x, the first %016x", digest(model), digest(ph.model))
	}
	for range stats.RoundDurations {
		r.op(ok)
	}
	if t.traced {
		call := t.rec.add(span{Name: "runtime.train", Start: start, End: t.rec.now(), Parent: -1, Op: t.round, Node: 0})
		at := start
		for i, d := range stats.RoundDurations {
			t.rec.add(span{Name: "runtime.round", Start: at, End: at + int64(d), Parent: call, Op: t.round + i, Node: 0})
			at += int64(d)
		}
	}
	t.round += batchRounds
	return model, stats, nil
}

// referenceModel trains one batch of the workload's update rule in this
// process with the ml package, the single-worker baseline the cluster's
// model is compared against: each node's partial from its own shard, as
// the cluster's nodes compute them, combined by ml.AggregateModels.
func referenceModel(sp trainSpec) []float64 {
	shards := ml.Partition(sp.data, clusterNodes)
	cfg := ml.SGDConfig{LearningRate: sp.lr, MiniBatch: sp.perNode * clusterNodes, Aggregator: sp.agg}
	model := append([]float64(nil), sp.model0...)
	cursor := 0
	for round := 0; round < batchRounds; round++ {
		partials := make([][]float64, clusterNodes)
		for i, shard := range shards {
			var b []ml.Sample
			for j := 0; j < sp.perNode; j++ {
				b = append(b, shard[(cursor+j)%len(shard)])
			}
			if sp.agg == dsl.AggAverage {
				partials[i] = ml.ParallelSGDBatch(sp.alg, cfg, model, b, 1)
			} else {
				partials[i] = ml.AccumulateGradients(sp.alg, model, b)
			}
		}
		cursor += sp.perNode
		model = ml.AggregateModels(cfg, model, partials)
	}
	return model
}

func accelCycles(engines []runtime.Engine) int64 {
	var total int64
	for _, e := range engines {
		if te, ok := e.(*tracedEngine); ok {
			e = te.inner
		}
		if ae, ok := e.(*runtime.AccelEngine); ok {
			total += ae.Cycles()
		}
	}
	return total
}

// roundPhases splits every traced timed round at the node that finished
// computing last: model delivery (round start → its compute start),
// critical compute (its PartialUpdate) and aggregation tail (its compute
// end → round end). The three sum to the round by construction. The
// phases are means per traced round, so they sum to the mean round.
//
// A round's start is its Train call's start plus the durations of the
// rounds before it, so it reads early by the call's time outside rounds
// before it (copying the model in, the loop between rounds), and its end
// reads early by as much. Delivery therefore cannot read negative, and the
// tail can read negative by at most the call's whole time outside rounds.
// The check is that both hold, and that every node computed once per
// round; a failure means the spans were attributed to the wrong round.
func roundPhases(r *run, sp trainSpec, ph *phase) {
	spans := r.rec.snapshot()
	rounds := map[int]int{} // round number → span index
	compute := map[int][]int{}
	inRounds := map[int]int64{} // Train call span index → time in its rounds
	for i, s := range spans {
		if s.Start < ph.timedFrom {
			continue
		}
		switch s.Name {
		case "runtime.round":
			rounds[s.Op] = i
			inRounds[s.Parent] += s.dur()
		case sp.layer:
			compute[s.Op] = append(compute[s.Op], i)
		}
	}
	var delivery, crit, tail, skew, busy int64
	var busyCalls, bad int
	for op, ri := range rounds {
		rs := spans[ri]
		cs := compute[op]
		if len(cs) != clusterNodes {
			bad++
			continue
		}
		last, first := spans[cs[0]], spans[cs[0]]
		for _, ci := range cs {
			c := spans[ci]
			r.rec.link(ci, ri)
			busy += c.dur()
			busyCalls++
			if c.End > last.End {
				last = c
			}
			if c.End < first.End {
				first = c
			}
		}
		d, cc, t := last.Start-rs.Start, last.dur(), rs.End-last.End
		outside := spans[rs.Parent].dur() - inRounds[rs.Parent]
		if d < 0 || t < -outside || d+cc+t != rs.dur() {
			bad++
			continue
		}
		delivery += d
		crit += cc
		tail += t
		skew += last.End - first.End
	}
	if bad > 0 || len(rounds) == 0 {
		r.fail("trace: %d of %d traced rounds do not split into delivery + compute + tail", bad, len(rounds))
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(len(rounds), 1)) }
	r.set("runtime.model_delivery_ms", ms(delivery), "ms")
	r.set("runtime.critical_compute_ms", ms(crit), "ms")
	r.set("runtime.aggregation_tail_ms", ms(tail), "ms")
	r.set("runtime.compute_skew_ms", ms(skew), "ms")
	r.set(sp.layer+"_ms", float64(busy)/1e6/float64(max(busyCalls, 1)), "ms")
}

// probeUtilization runs one batch of a node's shape on a fresh simulator
// of the trained program for its compute ÷ total cycles, and checks that
// the probe's cycle count is the engines' per-round, per-node count.
func probeUtilization(sp trainSpec, ph *phase) (float64, error) {
	prog := ph.prog.Schedule()
	batch := sp.data[:sp.perNode]
	parts := make([][]map[string][]float64, prog.Plan.Threads)
	for t, part := range ml.Partition(batch, prog.Plan.Threads) {
		for _, s := range part {
			parts[t] = append(parts[t], sp.alg.PackSample(s))
		}
	}
	res, err := accel.New(prog).RunBatch(sp.alg.PackModel(sp.model0), parts, sp.lr, sp.agg)
	if err != nil {
		return 0, fmt.Errorf("utilization probe: %w", err)
	}
	calls := int64(len(ph.rounds) * clusterNodes)
	if ph.cycles%calls != 0 || res.Cycles != ph.cycles/calls {
		return 0, fmt.Errorf("utilization probe: %d cycles per batch, engines averaged %d", res.Cycles, ph.cycles/calls)
	}
	return float64(res.ComputeCycles) / float64(res.Cycles), nil
}
