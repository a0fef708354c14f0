package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	cosmic "repro"
	"repro/internal/accel"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/verilog"

	rtmetrics "runtime/metrics"
)

// table1-build compiles all ten Table 1 programs at cosmic-sim's default
// scale for UltraScale+, emits their Verilog, and runs one 64-vector batch
// of each on the simulator, checked against the ml reference as
// cosmic-sim checks it.
const (
	buildScale   = 0.02
	buildVectors = 64
	// simTolerance is cosmic-sim's bound on |simulated - reference|.
	simTolerance = 1e-9
	// coldChildren is how many extra processes each time one cold suite
	// pass for setup_s, besides the run's own first pass.
	coldChildren = 2
)

// buildInput is one Table 1 program's generated inputs and, once its
// first build has been checked, the figures later builds must repeat.
type buildInput struct {
	bench       cosmic.Benchmark
	alg         ml.Algorithm
	data        []ml.Sample
	packed      []map[string][]float64
	model0      []float64
	packedModel map[string][]float64
	lr          float64

	checked bool
	threads int
	want    []float64
	// rtlDigest, not the RTL itself: holding ten programs' RTL would grow
	// the heap the builds run against and change their GC pacing.
	rtlDigest uint64
	// partialDigest is the first build's simulated partial, bit for bit.
	partialDigest uint64
	lossRatio     float64
	lossVsRef     float64
	cycles        int64
}

func table1Inputs(seed int64) []*buildInput {
	var ins []*buildInput
	for _, b := range cosmic.Benchmarks {
		alg := b.Algorithm(buildScale)
		data := b.Generate(alg, buildVectors, seed)
		model := alg.InitModel(rand.New(rand.NewSource(seed)))
		in := &buildInput{bench: b, alg: alg, data: data, model0: model,
			packedModel: alg.PackModel(model), lr: b.DefaultLR(alg)}
		for _, s := range data {
			in.packed = append(in.packed, alg.PackSample(s))
		}
		ins = append(ins, in)
	}
	return ins
}

// buildOut is what one build produced. trim drops the artifacts once
// they are checked; the counts stay.
type buildOut struct {
	threads int
	rtl     string
	res     *accel.BatchResult
	prog    *compiler.Program
	dur     time.Duration

	cycles, compute int64
	// Traced builds only: busy time per layer, objects dfg.Translate
	// allocated, DFG ops and inter-PE transfers.
	layerNs   map[string]int64
	allocsObj uint64
	graphOps  int
	transfers int
}

// trim keeps only the figures the run reports, so that holding every
// build's outcome does not hold every program.
func (o *buildOut) trim() {
	if o.layerNs != nil {
		o.transfers = o.prog.CommunicationCost()
	}
	o.cycles, o.compute = o.res.Cycles, o.res.ComputeCycles
	o.rtl, o.prog, o.res = "", nil, nil
}

// partition splits the packed vectors across the plan's threads into the
// contiguous parts ml.Partition would cut.
func (in *buildInput) partition(threads int) [][]map[string][]float64 {
	parts := make([][]map[string][]float64, threads)
	for i := range parts {
		parts[i] = in.packed[i*len(in.packed)/threads : (i+1)*len(in.packed)/threads]
	}
	return parts
}

// buildPlain is one build through the public facade, untraced.
func buildPlain(in *buildInput) (*buildOut, error) {
	start := time.Now()
	prog, err := cosmic.Compile(in.alg.DSLSource(), in.alg.DSLParams(), cosmic.UltraScalePlus,
		cosmic.Options{MiniBatch: buildVectors})
	if err != nil {
		return nil, err
	}
	rtl, err := prog.Verilog()
	if err != nil {
		return nil, err
	}
	threads := prog.Plan().Threads
	res, err := prog.Simulator().RunBatch(in.packedModel, in.partition(threads), in.lr, dsl.AggAverage)
	if err != nil {
		return nil, err
	}
	return &buildOut{threads: threads, rtl: rtl, res: res, prog: prog.Schedule(), dur: time.Since(start)}, nil
}

// buildTraced is the same build with a span around each layer call, in
// the order core.BuildProgram and Program.Verilog make them.
func buildTraced(r *run, in *buildInput, op int) (*buildOut, error) {
	rec := r.rec
	out := &buildOut{layerNs: map[string]int64{}}
	start := time.Now()
	parent := rec.add(span{Name: "build", Start: rec.now(), Parent: -1, Op: op, Node: -1})
	layer := func(name string, call func() error) error {
		s := span{Name: name, Start: rec.now(), Parent: parent, Op: op, Node: -1}
		err := call()
		s.End = rec.now()
		rec.add(s)
		out.layerNs[name] += s.dur()
		return err
	}
	var (
		unit  *dsl.Unit
		graph *dfg.Graph
		point planner.DesignPoint
		img   *verilog.Image
		err   error
	)
	if err = layer("dsl.parse", func() error {
		unit, err = dsl.ParseAndAnalyze(in.alg.DSLSource(), in.alg.DSLParams())
		return err
	}); err != nil {
		return nil, err
	}
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	if err = layer("dfg.translate", func() error {
		graph, err = dfg.Translate(unit)
		return err
	}); err != nil {
		return nil, err
	}
	rtmetrics.Read(allocs)
	out.allocsObj = allocs[0].Value.Uint64() - before
	if err = layer("planner.plan", func() error {
		point, err = planner.Plan(graph, cosmic.UltraScalePlus, planner.Options{
			MiniBatch: buildVectors, Style: compiler.StyleCoSMIC,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err = layer("compiler.schedule", func() error {
		out.prog, err = compiler.Compile(graph, point.Plan, compiler.StyleCoSMIC)
		return err
	}); err != nil {
		return nil, err
	}
	if err = layer("verilog.encode", func() error {
		img, err = verilog.Encode(out.prog)
		return err
	}); err != nil {
		return nil, err
	}
	if err = layer("verilog.generate", func() error {
		out.rtl, err = verilog.Generate(img)
		return err
	}); err != nil {
		return nil, err
	}
	out.threads = point.Plan.Threads
	parts := in.partition(out.threads)
	if err = layer("accel.batch", func() error {
		out.res, err = accel.New(out.prog).RunBatch(in.packedModel, parts, in.lr, dsl.AggAverage)
		return err
	}); err != nil {
		return nil, err
	}
	out.dur = time.Since(start)
	out.graphOps = graph.NumOps()
	rec.finish(parent)
	return out, nil
}

// check verifies one build: non-empty Verilog, the simulated partial
// within simTolerance of the ml reference, and the same RTL and cycle
// count as the program's first build.
func (in *buildInput) check(out *buildOut) error {
	if strings.TrimSpace(out.rtl) == "" {
		return fmt.Errorf("%s: empty Verilog", in.bench.Name)
	}
	if out.res.Cycles <= 0 {
		return fmt.Errorf("%s: %d simulated cycles", in.bench.Name, out.res.Cycles)
	}
	got := runtime.FlattenModel(in.alg, out.res.Partial)
	if !in.checked {
		in.threads = out.threads
		in.want = ml.ParallelSGDBatch(in.alg,
			ml.SGDConfig{LearningRate: in.lr, Aggregator: dsl.AggAverage}, in.model0, in.data, out.threads)
		in.rtlDigest = digestString(out.rtl)
		in.lossRatio = ml.MeanLoss(in.alg, got, in.data) / ml.MeanLoss(in.alg, in.model0, in.data)
		in.lossVsRef = ml.MeanLoss(in.alg, got, in.data) / ml.MeanLoss(in.alg, in.want, in.data)
		in.cycles = out.res.Cycles
		in.partialDigest = digest(got)
		in.checked = true
	}
	if len(got) != len(in.want) {
		return fmt.Errorf("%s: simulated partial has %d words, reference %d", in.bench.Name, len(got), len(in.want))
	}
	for i := range got {
		if d := math.Abs(got[i] - in.want[i]); !(d < simTolerance) {
			return fmt.Errorf("%s: |sim - reference| = %g at word %d", in.bench.Name, d, i)
		}
	}
	if out.threads != in.threads || out.res.Cycles != in.cycles || digestString(out.rtl) != in.rtlDigest ||
		digest(got) != in.partialDigest {
		return fmt.Errorf("%s: build differs from the program's first build (threads %d/%d, cycles %d/%d)",
			in.bench.Name, out.threads, in.threads, out.res.Cycles, in.cycles)
	}
	return nil
}

// suitePass builds every program once, in Table 1 order, and checks each
// build; a build that errors or fails its check is a failed operation.
// Each build starts on a collected heap (runtime.GC, untimed, before it),
// so neither its time nor the run's peak RSS depends on the garbage the
// build before it left. mem sums the runtime counters over the builds
// alone.
func suitePass(r *run, ins []*buildInput, traced bool) (durs []time.Duration, outs []*buildOut, mem memDelta, err error) {
	for _, in := range ins {
		goruntime.GC()
		before := readMem()
		var out *buildOut
		var berr error
		if traced {
			out, berr = buildTraced(r, in, int(r.attempted))
		} else {
			out, berr = buildPlain(in)
		}
		mem = mem.plus(before.to(readMem()))
		if berr == nil {
			berr = in.check(out)
		}
		r.op(berr == nil)
		if berr != nil {
			r.fail("%v", berr)
			err = fmt.Errorf("table1-build: a build failed")
			continue
		}
		out.trim()
		durs = append(durs, out.dur)
		outs = append(outs, out)
	}
	return durs, outs, mem, err
}

// coldSuitePass times one suite pass in a fresh process (the -cold-pass
// child); inputs are generated first, untimed. The pass's set-up time is
// the sum of its build times.
func coldSuitePass(seed int64) (float64, error) {
	r := &run{seed: seed, rec: newRecorder()}
	durs, _, _, err := suitePass(r, table1Inputs(seed), false)
	if err != nil {
		return 0, fmt.Errorf("cold pass: %s", strings.Join(r.problems, "; "))
	}
	return sumSeconds(durs), nil
}

func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// coldSetups times coldChildren cold suite passes, each in a child
// process of this binary, one after another, each scaled by the share of
// CPU time stolen while its process ran (see unstolen).
func coldSetups(seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < coldChildren; i++ {
		steal, start := readSteal(), time.Now()
		out, err := exec.Command(exe, "-cold-pass", "-seed", strconv.FormatInt(seed, 10)).Output()
		keep := 1 - batch{wall: since(start), steal: readSteal() - steal}.stealShare()
		if err != nil {
			return nil, fmt.Errorf("cold pass child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("cold pass child output %q: %w", out, err)
		}
		secs = append(secs, v*keep)
	}
	return secs, nil
}

// minPasses is the fewest timed suite passes in an untraced run: 100
// builds, so that ten lie beyond build_p90_ms.
const minPasses = 10

// timedPasses runs whole suite passes, each one batch, until seconds have
// passed and at least want passes are done.
func timedPasses(r *run, ins []*buildInput, seconds float64, want int, traced bool) (bs []batch, outs []*buildOut, mem memDelta, err error) {
	start := time.Now()
	for len(bs) < want || since(start) < seconds {
		var o []*buildOut
		var m memDelta
		b, err := timeBatch(func() ([]time.Duration, error) {
			durs, outs, mem, err := suitePass(r, ins, traced)
			o, m = outs, mem
			return durs, err
		})
		if err != nil {
			return nil, nil, mem, err
		}
		bs = append(bs, b)
		outs = append(outs, o...)
		mem = mem.plus(m)
	}
	return bs, outs, mem, nil
}

// programMedians is each program's median build time over the passes, in
// ms, in Table 1 order.
func programMedians(bs []batch, programs int) []float64 {
	meds := make([]float64, programs)
	for p := range meds {
		var xs []float64
		for _, b := range bs {
			xs = append(xs, float64(b.ops[p])/1e6)
		}
		meds[p] = median(xs)
	}
	return meds
}

func runTable1Build(r *run) error {
	ins := table1Inputs(r.seed)
	r.params = map[string]any{
		"programs": len(ins), "scale": buildScale, "chip": "UltraScale+", "vectors": buildVectors,
		"minibatch": buildVectors, "aggregator": "average", "tolerance": simTolerance,
		"cold_setup_processes": coldChildren + 1,
	}
	setups, err := coldSetups(r.seed)
	if err != nil {
		return err
	}
	// The run's own first pass is cold too, and is the untimed warm-up of
	// the timed passes.
	first, err := timeBatch(func() ([]time.Duration, error) {
		durs, _, _, err := suitePass(r, ins, false)
		return durs, err
	})
	if err != nil {
		return err
	}
	setups = append(setups, sumSeconds(first.ops)*(1-first.stealShare()))

	seconds, want := r.seconds, minPasses
	if r.trace {
		seconds, want = seconds/2, 1
	}
	bs, _, mem, err := timedPasses(r, ins, seconds, want, false)
	if err != nil {
		return err
	}
	var ratios, vsRef, cpv []float64
	// The programs' partial digests, carried as float64 bits so that
	// digest folds them into one.
	partials := make([]float64, len(ins))
	for i, in := range ins {
		partials[i] = math.Float64frombits(in.partialDigest)
		ratios = append(ratios, in.lossRatio)
		vsRef = append(vsRef, in.lossVsRef)
		cpv = append(cpv, float64(in.cycles)/buildVectors)
	}
	r.outputDigest = digest(partials)
	scaled := unstolen(bs)
	meds := programMedians(scaled, len(ins))
	all, _ := opsOf(bs)
	sops, _ := opsOf(scaled)
	n := float64(len(all))
	typical, throughput := geomean(meds), n/sumSeconds(sops)
	r.opsMs = durationsMs(all)
	r.logBatches(bs)
	r.show("build_p50_ms", percentileMs(all, 50), "ms")
	r.show("build_p90_ms", percentileMs(all, 90), "ms")
	r.show("builds_per_s", n/sumSeconds(all), "builds/s")
	r.show("timed_builds", n, "count")
	r.show("steal_pct", stealPct(bs), "pct")
	for i, in := range ins {
		r.show("unstolen_build_ms."+in.bench.Name, meds[i], "ms")
	}
	r.show("unstolen_build_geomean_ms", typical, "ms")
	r.show("unstolen_builds_per_s", throughput, "builds/s")
	r.show("cycles_per_vector", geomean(cpv), "cycles")
	r.show("loss_ratio", geomean(ratios), "ratio")
	r.show("loss_vs_reference", geomean(vsRef), "ratio")
	r.show("setup_s", median(setups), "s")
	r.show("alloc_mb_per_op", mem.allocMB/n, "MB")
	r.show("cpu_ms_per_op", mem.cpuMs/n, "ms")
	r.params["timed_passes"] = len(bs)
	if !r.trace {
		r.set("latency_ms", typical, "ms")
		r.set("throughput_per_s", throughput, "1/s")
		r.set("loss_vs_reference", geomean(vsRef), "ratio")
		r.set("setup_s", median(setups), "s")
		r.set("alloc_mb_per_op", mem.allocMB/n, "MB")
		return nil
	}

	tbs, outs, tmem, err := timedPasses(r, ins, seconds, 1, true)
	if err != nil {
		return err
	}
	tpasses := len(tbs)
	tn := float64(len(outs))
	perPass := func(ns int64) float64 { return float64(ns) / 1e6 / float64(tpasses) }
	layerNs := map[string]int64{}
	var buildNs int64
	var allocs uint64
	var ops, transfers int
	var cycles, compute int64
	for _, o := range outs {
		for k, v := range o.layerNs {
			layerNs[k] += v
		}
		buildNs += int64(o.dur)
		allocs += o.allocsObj
		ops += o.graphOps
		transfers += o.transfers
		cycles += o.cycles
		compute += o.compute
	}
	var covered int64
	for name, ns := range layerNs {
		covered += ns
		r.set(name+"_ms", perPass(ns), "ms")
	}
	r.set("dfg.translate_allocs", float64(allocs)/float64(tpasses), "count")
	r.set("dfg.ops", float64(ops)/float64(tpasses), "count")
	r.set("compiler.transfers", float64(transfers)/float64(tpasses), "count")
	r.set("accel.utilization", float64(compute)/float64(cycles), "ratio")
	r.set("accel.cycles_per_vector", geomean(cpv), "cycles")
	r.set("gc.cycles_per_op", tmem.gcCycles/tn, "count")
	r.set("gc.pause_ms_per_op", tmem.pauseMs/tn, "ms")
	r.set("trace.overhead_pct", 100*(geomean(programMedians(unstolen(tbs), len(ins)))/typical-1), "pct")
	r.set("trace.uncovered_pct", 100*float64(buildNs-covered)/float64(buildNs), "pct")
	return nil
}
