package main

// metricDef is one metric the ledger prints. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes for them; per-layer metrics name
// the layer they describe and the end-to-end metric (and workload) they
// are expected to move, which the traced run prints beside the value.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Target string
}

// endToEnd are the user-visible metrics of every workload, measured with
// tracing off. An operation is one solve (fig6-feedback, serve-sessions)
// or one mutation batch plus its warm re-solve (churn-refresh).
//
// The timings are costs: the process's CPU time over each operation
// (every layer and the garbage collector; serve-sessions' in-process
// shards and router too), with operations run one at a time so the time
// is the operation's own, divided by the CPU time of the benchmark's
// fixed reference kernel run beside it (refkernel.go), so the unit "ref"
// is one run of that kernel. On the shared 2-vCPU machine the benchmark
// was tuned on, wall-clock medians of the same code moved by 30–47 %
// between runs (steal), and CPU time in ms by up to ~30 % (the host runs
// the same code slower or faster as other tenants load its cores); the
// cost in kernel runs moved by a few per cent. The report prints the
// timings in ms of CPU time and by the wall clock beside these, ungated.
//
// completed_share is 1 − failed_share: operations completed over
// operations attempted, with no retries. It is reported as the complement
// because a metric that reads 0 on every healthy run has no median to
// bound; any failure also makes the run incorrect.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cost_p50_ref", Unit: "ref", Better: "lower", Bound: 0.25},
	{Name: "cost_p95_ref", Unit: "ref", Better: "lower", Bound: 0.25},
	{Name: "cost_per_op_ref", Unit: "ref", Better: "lower", Bound: 0.25},
	{Name: "create_cost_p50_ref", Unit: "ref", Better: "lower", Bound: 0.25},
	{Name: "quality_mean", Unit: "Q", Better: "higher", Bound: 0.1},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
	{Name: "completed_share", Unit: "fraction", Better: "higher", Bound: 0.01},
}

const (
	onServe = "@serve-sessions"
	onFig6  = "@fig6-feedback"
	onChurn = "@churn-refresh"
	onAll   = "@all"
)

// perLayer are the traced run's metrics, one block per module. A layer a
// workload never calls reports 0 (1 for shard imbalance: an in-process
// workload has one engine, perfectly balanced).
var perLayer = []metricDef{
	{Name: "router.proxy_solve_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onServe},
	{Name: "router.proxy_create_ms", Unit: "ms", Better: "lower", Target: "create_cost_p50_ref" + onServe},
	{Name: "router.shard_imbalance", Unit: "ratio", Better: "lower", Target: "latency_p95_ms (wall)" + onServe},

	{Name: "server.handler_solve_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onServe},
	{Name: "server.handler_create_ms", Unit: "ms", Better: "lower", Target: "create_cost_p50_ref" + onServe},
	{Name: "server.wait_ms", Unit: "ms", Better: "lower", Target: "latency_p95_ms (wall)" + onServe},
	{Name: "server.rejections", Unit: "count", Better: "lower", Target: "completed_share" + onServe},

	{Name: "schemaio.universe_decode_ms", Unit: "ms", Better: "lower", Target: "create_cost_p50_ref" + onServe},
	{Name: "schemaio.solution_encode_json_us", Unit: "us", Better: "lower", Target: "cost_p50_ref" + onServe},
	{Name: "schemaio.solution_encode_binary_us", Unit: "us", Better: "lower", Target: "cost_p50_ref" + onServe},
	{Name: "schemaio.response_bytes", Unit: "bytes", Better: "lower", Target: "cost_p50_ref" + onServe},

	{Name: "wal.appends_per_op", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onServe},
	{Name: "wal.records_per_fsync", Unit: "ratio", Better: "higher", Target: "create_p50_ms (wall)" + onServe},
	{Name: "wal.bytes_per_op", Unit: "bytes", Better: "lower", Target: "create_cost_p50_ref" + onServe},
	{Name: "wal.flush_p50_ms", Unit: "ms", Better: "lower", Target: "create_p50_ms (wall)" + onServe},

	{Name: "engine.new_ms", Unit: "ms", Better: "lower", Target: "setup_s" + onChurn + ", create_cost_p50_ref" + onServe},
	{Name: "engine.solve_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onAll},
	{Name: "engine.setup_span_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onChurn},
	{Name: "engine.final_span_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "engine.apply_churn_ms", Unit: "ms", Better: "lower", Target: "cost_p50_ref" + onChurn},
	{Name: "engine.match_hit_ratio", Unit: "ratio", Better: "higher", Target: "cost_p50_ref" + onFig6},

	{Name: "strsim.vocab", Unit: "count", Better: "lower", Target: "setup_s, cost_p50_ref" + onChurn},
	{Name: "strsim.build_matrix_ms", Unit: "ms", Better: "lower", Target: "setup_s, cost_p50_ref" + onChurn},
	{Name: "strsim.build_sparse_ms", Unit: "ms", Better: "lower", Target: "setup_s, cost_p50_ref" + onChurn},
	{Name: "block.candidates", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onChurn},
	{Name: "block.precision", Unit: "ratio", Better: "higher", Target: "cost_p50_ref" + onChurn},

	{Name: "search.evals", Unit: "count", Better: "lower", Target: "cost_per_op_ref" + onFig6},
	{Name: "search.batches", Unit: "count", Better: "lower", Target: "cost_per_op_ref" + onFig6},
	{Name: "search.evals_per_s", Unit: "1/s", Better: "higher", Target: "cost_per_op_ref" + onFig6},
	{Name: "bound.skips", Unit: "count", Better: "higher", Target: "cost_per_op_ref" + onFig6},

	{Name: "cluster.match_us", Unit: "us", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "match.runs", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "cluster.pairs", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "cluster.pops", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "cluster.rounds", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "cluster.match_share_est", Unit: "ratio", Better: "lower", Target: "cost_p50_ref" + onFig6},

	{Name: "qef.eval_us", Unit: "us", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "qef.full", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "qef.delta", Unit: "count", Better: "higher", Target: "cost_p50_ref" + onFig6},
	{Name: "qef.delta_share", Unit: "ratio", Better: "higher", Target: "cost_p50_ref" + onFig6},
	{Name: "pcsa.union_estimate_us", Unit: "us", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "pcsa.unions", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},
	{Name: "pcsa.snapshotUnions", Unit: "count", Better: "lower", Target: "cost_p50_ref" + onFig6},

	{Name: "go.alloc_mb_per_op", Unit: "MiB", Better: "lower", Target: "heap_live_mb, cost_p95_ref" + onAll},
	{Name: "go.gc_per_op", Unit: "count", Better: "lower", Target: "heap_live_mb, cost_p95_ref" + onAll},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Target: "cost_per_op_ref (traced vs untraced)" + onAll},
}
