package main

// workloadWhy records why each workload was chosen; it is copied into every
// run record. README.md says the same at more length.
var workloadWhy = map[string]string{
	"linreg-wide": "65535-word linear regression, 16 streaming chunks, reference engine with 1 thread and 1 sample " +
		"per node per round: the wire and fold path does most of the work, compute is one sample",
	"mnist-accel": "mnist at scale 0.05 (1599 words, one chunk) on the cycle-level simulator with 32 samples per node " +
		"per round and the summing aggregator: the simulator does most of the work, and single-chunk sum-apply " +
		"rounds show a fold or chunking change that costs them",
	"table1-build": "all ten Table 1 programs compiled, emitted as Verilog and simulated for one 64-vector batch: " +
		"the compile-side layers do all the work, and the simulator runs ten programs once each instead of one " +
		"program thousands of times",
}

// layerMetric is one per-layer metric of a traced run: its unit, and the
// end-to-end metric it should move on which workload. round_p99_ms is
// printed by the training workloads but not gated.
type layerMetric struct {
	Unit   string `json:"unit"`
	Target string `json:"target"`
}

// layerMetrics are every per-layer metric; a traced run reports each, and
// those of layers the workload does not exercise read 0.
var layerMetrics = map[string]layerMetric{
	"runtime.launch_ms":            {"ms", "setup_s on linreg-wide and mnist-accel"},
	"runtime.model_delivery_ms":    {"ms", "latency_ms on linreg-wide; on mnist-accel mostly the critical node waiting for a CPU, not the wire"},
	"runtime.critical_compute_ms":  {"ms", "latency_ms on mnist-accel"},
	"runtime.aggregation_tail_ms":  {"ms", "latency_ms and throughput_per_s on linreg-wide"},
	"runtime.compute_skew_ms":      {"ms", "round_p99_ms on mnist-accel"},
	"runtime.excluded_rounds":      {"count", "failed (0 on a healthy run)"},
	"ml.partial_ms":                {"ms", "latency_ms on linreg-wide (minor share)"},
	"accel.batch_ms":               {"ms", "latency_ms on mnist-accel; a small share of latency_ms on table1-build"},
	"accel.utilization":            {"ratio", "accel.cycles_per_vector on mnist-accel and table1-build"},
	"accel.cycles_per_vector":      {"cycles", "the paper's cost of the generated hardware; latency_ms on mnist-accel"},
	"cosmicnet.bytes_per_round":    {"bytes", "latency_ms on linreg-wide"},
	"cosmicnet.writes_per_round":   {"count", "latency_ms on linreg-wide"},
	"cosmicnet.write_ms_per_round": {"ms", "runtime.aggregation_tail_ms, then latency_ms, on linreg-wide"},
	"gc.cycles_per_op":             {"count", "round_p99_ms, cpu_ms_per_op and alloc_mb_per_op on linreg-wide"},
	"gc.pause_ms_per_op":           {"ms", "round_p99_ms and latency_ms on linreg-wide"},
	"dsl.parse_ms":                 {"ms", "latency_ms on table1-build; 0 in training"},
	"dfg.translate_ms":             {"ms", "latency_ms on table1-build, the CF programs most; 0 in training"},
	"planner.plan_ms":              {"ms", "latency_ms on table1-build, the CF programs most; 0 in training"},
	"compiler.schedule_ms":         {"ms", "latency_ms on table1-build; 0 in training"},
	"verilog.encode_ms":            {"ms", "latency_ms on table1-build; 0 in training"},
	"verilog.generate_ms":          {"ms", "latency_ms on table1-build; 0 in training"},
	"dfg.translate_allocs":         {"count", "alloc_mb_per_op on table1-build"},
	"dfg.ops":                      {"count", "alloc_mb_per_op and latency_ms on table1-build"},
	"compiler.transfers":           {"count", "accel.cycles_per_vector on table1-build"},
	"trace.overhead_pct":           {"pct", "none: the cost of tracing itself"},
	"trace.uncovered_pct":          {"pct", "none: the share of traced build time no layer span covers (0 in training, where the phases tile each round)"},
}
