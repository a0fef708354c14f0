// Command perfbench is the repository's benchmark: one closed-loop driver
// goroutine in one process runs a named workload against the program's
// public entry points, checks that its outputs are correct, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// instrumentation in the program's path. With -trace 1 a second, traced
// measurement wraps the calls into each layer (runtime.Engine, a counting
// cosmicnet.Transport, and the compile-side entry points in the order
// core.BuildProgram calls them) and the metrics are the per-layer ones.
// Spans are held in memory and written to .bench_out/ when the run ends.
//
// Usage, from the repository root (run.sh builds and then runs this):
//
//	bash perfbench/run.sh --workload linreg-wide --seed 1 --seconds 30 --trace 0
//
// README.md in this directory records why each workload was chosen and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed a run uses unless given one; heldOutSeed is kept
// back, so that a claim made on the default seed can be re-checked on a
// seed it was not written against.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	// human holds the workload-specific figures printed above the result
	// line under the names the workload defines them by.
	human []string
	// params records the workload's parameters in the run record.
	params map[string]any
	// outputDigest is an FNV-64 of what the workload computed (the trained
	// model, or every program's simulated partial), so that two runs of one
	// seed can be compared bit for bit.
	outputDigest uint64
	// opsMs are the untraced timed operations' durations, in order, for
	// the run record.
	opsMs []float64
	// batches logs each untraced timed batch as [operations, wall ms,
	// steal ticks] for the run record.
	batches [][3]float64
	rec     *recorder
}

// fail records a failed correctness or coherence check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// op counts one attempted operation (a round or a build) and whether it
// failed.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *run) logBatches(bs []batch) {
	for _, b := range bs {
		r.batches = append(r.batches, [3]float64{float64(len(b.ops)), b.wall * 1e3, float64(b.steal)})
	}
}

// show prints a workload figure under its own name, above the result line.
func (r *run) show(name string, value float64, unit string) {
	r.human = append(r.human, fmt.Sprintf("%-28s %14.6g %s", name, value, unit))
}

var workloads = map[string]func(*run) error{
	"linreg-wide":  runLinregWide,
	"mnist-accel":  runMnistAccel,
	"table1-build": runTable1Build,
}

func main() {
	workload := flag.String("workload", "", "workload to run: linreg-wide, mnist-accel or table1-build")
	seed := flag.Int64("seed", defaultSeed, "input seed (the program receives only the inputs generated from it)")
	seconds := flag.Float64("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	coldPass := flag.Bool("cold-pass", false, "internal: time one cold table1-build suite pass and print its seconds")
	flag.Parse()

	if *coldPass {
		secs, err := coldSuitePass(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(secs)
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want linreg-wide, mnist-accel or table1-build)", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		metrics: map[string]metric{}, params: map[string]any{},
		rec: newRecorder(),
	}
	if err := fn(r); err != nil {
		r.fail("%v", err)
		if r.attempted == 0 {
			r.attempted = 1
		}
		if r.failed == 0 {
			r.failed = 1
		}
	}
	if !r.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fatal(err)
		}
		r.set("peak_rss_mb", rss, "MB")
	}
	r.finish()
}

// finish writes the run record and spans, prints the workload figures and
// the result line, and exits non-zero if any check failed.
func (r *run) finish() {
	if r.trace {
		for name, m := range layerMetrics {
			if _, ok := r.metrics[name]; !ok {
				r.set(name, 0, m.Unit)
			}
		}
		for name := range r.metrics {
			if _, ok := layerMetrics[name]; !ok {
				r.fail("metric %s is not a per-layer metric", name)
			}
		}
	}
	correct := len(r.problems) == 0
	r.show("error_rate", float64(r.failed)/float64(r.attempted), "ratio")
	env := environment()
	record := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace,
		"environment": env, "parameters": r.params, "workload_why": workloadWhy[r.workload],
		"correct": correct, "problems": r.problems, "attempted": r.attempted, "failed": r.failed,
		"metrics": r.metrics, "timed_ops_ms": r.opsMs, "batches": r.batches,
		"default_seed": defaultSeed, "held_out_seed": heldOutSeed,
		"output_digest": fmt.Sprintf("%016x", r.outputDigest),
	}
	if r.trace {
		record["layer_metrics"] = layerMetrics
		record["spans"] = r.rec.snapshot()
	}
	path, err := writeRecord(r, record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		correct = false
	}

	for _, line := range r.human {
		fmt.Println(line)
	}
	fmt.Printf("%-28s %016x\n", "output_digest", r.outputDigest)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envLine)
	fmt.Printf("record %s\n", path)
	line, err := json.Marshal(result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct || r.failed > 0 {
		os.Exit(1)
	}
}

// writeRecord stores the run record (and, on a traced run, every span)
// under .bench_out/ in the working directory.
func writeRecord(r *run, record map[string]any) (string, error) {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if r.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, trace))
	blob, err := json.Marshal(record)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
