package main

import "slices"

// metricDef names one metric: its unit and which direction is better.
// Bound is set only on definitions read from BENCHMARK.json, which alone
// says which end-to-end metrics are gated and by how much.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact metrics are ledger counts: they repeat bit for bit per seed
	// and step count on the synchronous workloads.
	Exact bool `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the eleven end-to-end quantities of a run, measured with
// tracing off and reported per workload in every result file.
// BENCHMARK.json bounds the ones that are defined and non-zero on every
// workload and steady from run to run; it lists the others, unbounded,
// after the per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower},
	{Name: "steps_per_s", Unit: "1/s", Better: higher},
	{Name: "quiet_p50_us", Unit: "us", Better: lower},
	{Name: "viol_p50_us", Unit: "us", Better: lower},
	{Name: "reset_p50_us", Unit: "us", Better: lower},
	{Name: "msgs_per_step", Unit: "msgs", Better: lower, Exact: true},
	{Name: "model_bytes_per_step", Unit: "B", Better: lower, Exact: true},
	{Name: "link_bytes_per_step", Unit: "B", Better: lower, Exact: true},
	{Name: "allocs_per_step", Unit: "allocs", Better: lower},
	{Name: "heap_mb", Unit: "MB", Better: lower},
	{Name: "failed_share", Unit: "ratio", Better: lower, Exact: true},
}

// minClassSamples is the fewest calls of a class a p50 is reported for.
const minClassSamples = 30

// summary is the end-to-end view of one untraced run.
type summary struct {
	Calls   int
	Samples [numClasses]int // calls per class; zero on async runs
	// Blocks are the per-block rates steps_per_s is the median of.
	Blocks []float64
	// Values holds every end-to-end quantity by name; a class p50 with
	// too few samples is absent.
	Values map[string]float64
}

// summarize turns a run's raw measurements into the end-to-end metrics.
func summarize(r *runResult) summary {
	s := summary{Calls: r.Calls, Values: map[string]float64{}}
	calls := float64(max(r.Calls, 1))

	s.Blocks = blockRates(r.Durs, r.Batch)
	s.Values["steps_per_s"] = median(s.Blocks)
	if r.Class != nil {
		var by [numClasses][]int64
		for i, c := range r.Class {
			by[c] = append(by[c], r.Durs[i])
		}
		for c, name := range [numClasses]string{"quiet_p50_us", "viol_p50_us", "reset_p50_us"} {
			s.Samples[c] = len(by[c])
			if len(by[c]) >= minClassSamples {
				s.Values[name] = float64(percentile(by[c], 0.5)) / 1e3
			}
		}
	}
	// Contention only ever adds time: the fastest of the run's set-ups is
	// the steadiest estimate of what a set-up costs (over ten seeds it
	// spreads by under a tenth, the median by up to a quarter).
	s.Values["setup_s"] = slices.Min(r.Setups)
	s.Values["heap_mb"] = r.HeapMB
	s.Values["msgs_per_step"] = float64(r.Delta.Msgs) / calls
	s.Values["model_bytes_per_step"] = float64(r.Delta.ModelBytes) / calls
	s.Values["link_bytes_per_step"] = float64(r.Delta.LinkBytes) / calls
	s.Values["allocs_per_step"] = float64(r.Mallocs) / calls
	s.Values["failed_share"] = float64(r.Failed) / float64(r.attempted())
	return s
}

// attempted is what failed is counted against: every observation call
// plus the closing check.
func (r *runResult) attempted() int { return r.Calls + warmupSteps + 1 }

// perLayer lists every per-layer metric a traced run reports, layer by
// layer (the layers are this repository's packages). A metric of a layer
// the workload's path does not cross reads 0.
var perLayer = []metricDef{
	{Name: "topk.new_ns", Unit: "ns", Better: lower},
	{Name: "topk.observe_self_ns", Unit: "ns", Better: lower},
	{Name: "topk.step_p99_us", Unit: "us", Better: lower},
	{Name: "topk.step_max_us", Unit: "us", Better: lower},
	{Name: "topk.cpu_us_per_step", Unit: "us", Better: lower},
	{Name: "topk.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "stream.gen_ns_per_step", Unit: "ns", Better: lower},
	{Name: "core.observe_ns", Unit: "ns", Better: lower},
	{Name: "core.observe_delta_ns_per_update", Unit: "ns", Better: lower},
	{Name: "coord.nodes_observe_ns_per_update", Unit: "ns", Better: lower},
	{Name: "coord.nodes_round_ns_per_node", Unit: "ns", Better: lower},
	{Name: "coord.machine_quiet_step_ns", Unit: "ns", Better: lower},
	{Name: "coord.pending_put_ns", Unit: "ns", Better: lower},
	{Name: "coord.pending_take_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "protocol.exec_ns_n", Unit: "ns", Better: lower},
	{Name: "protocol.exec_ns_k", Unit: "ns", Better: lower},
	{Name: "protocol.rounds_per_exec", Unit: "count", Better: lower},
	{Name: "protocol.bcasts_per_step", Unit: "msgs", Better: lower},
	{Name: "protocol.up_msgs_per_step", Unit: "msgs", Better: lower},
	{Name: "filter.set_membership_ns", Unit: "ns", Better: lower},
	{Name: "filter.assign_band_ns", Unit: "ns", Better: lower},
	{Name: "order.encode_ns", Unit: "ns", Better: lower},
	{Name: "runtime.observe_ns", Unit: "ns", Better: lower},
	{Name: "wire.observe_enc_ns_per_value", Unit: "ns", Better: lower},
	{Name: "wire.observe_dec_ns_per_value", Unit: "ns", Better: lower},
	{Name: "wire.delta_enc_ns_per_value", Unit: "ns", Better: lower},
	{Name: "wire.delta_dec_ns_per_value", Unit: "ns", Better: lower},
	{Name: "wire.round_enc_ns", Unit: "ns", Better: lower},
	{Name: "wire.round_dec_ns", Unit: "ns", Better: lower},
	{Name: "wire.reply_enc_ns", Unit: "ns", Better: lower},
	{Name: "wire.reply_dec_ns", Unit: "ns", Better: lower},
	{Name: "wire.digest_enc_ns", Unit: "ns", Better: lower},
	{Name: "wire.digest_dec_ns", Unit: "ns", Better: lower},
	{Name: "wire.batch_enc_ns_per_sub", Unit: "ns", Better: lower},
	{Name: "wire.batch_dec_ns_per_sub", Unit: "ns", Better: lower},
	{Name: "wire.checkpoint_enc_ns_per_node", Unit: "ns", Better: lower},
	{Name: "wire.checkpoint_dec_ns_per_node", Unit: "ns", Better: lower},
	{Name: "wire.frames_per_step", Unit: "frames", Better: lower},
	{Name: "wire.bytes_per_frame", Unit: "B", Better: lower},
	{Name: "transport.send_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.flush_ns_per_flush", Unit: "ns", Better: lower},
	{Name: "transport.flushes_per_step", Unit: "count", Better: lower},
	{Name: "transport.recv_wait_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.recv_wait_share", Unit: "ratio", Better: lower},
	{Name: "transport.pipe_rtt_ns", Unit: "ns", Better: lower},
	{Name: "transport.tcp_rtt_ns", Unit: "ns", Better: lower},
	{Name: "transport.pipe_bulk_ns_per_kb", Unit: "ns", Better: lower},
	{Name: "transport.tcp_bulk_ns_per_kb", Unit: "ns", Better: lower},
	{Name: "netrun.host_busy_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "netrun.host_busy_share", Unit: "ratio", Better: lower},
	{Name: "netrun.coord_self_ns_per_step", Unit: "ns", Better: lower},
	{Name: "netrun.peer_skew", Unit: "ratio", Better: lower},
	{Name: "shardrun.root_frames_per_step", Unit: "frames", Better: lower},
	{Name: "shardrun.root_bytes_per_step", Unit: "B", Better: lower},
	{Name: "shardrun.overhead_msgs_per_step", Unit: "msgs", Better: lower},
	{Name: "shardrun.level_frames_per_step.l0", Unit: "frames", Better: lower},
	{Name: "shardrun.level_frames_per_step.l1", Unit: "frames", Better: lower},
	{Name: "shardrun.agent_busy_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "shardrun.interior_self_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "shardrun.root_self_ns_per_step", Unit: "ns", Better: lower},
	{Name: "ingest.enqueue_p50_ns", Unit: "ns", Better: lower},
	{Name: "ingest.enqueue_p99_ns", Unit: "ns", Better: lower},
	{Name: "ingest.drain_wait_p50_us", Unit: "us", Better: lower},
	{Name: "ingest.coalesce_ratio", Unit: "ratio", Better: higher},
	{Name: "ingest.engine_steps_per_call", Unit: "ratio", Better: lower},
	{Name: "ingest.max_queue", Unit: "count", Better: lower},
	{Name: "ckpt.save_ns", Unit: "ns", Better: lower},
	{Name: "ckpt.encode_ns", Unit: "ns", Better: lower},
	{Name: "ckpt.frame_bytes", Unit: "B", Better: lower},
	{Name: "ckpt.frame_bytes_per_node", Unit: "B", Better: lower},
	{Name: "ckpt.saves_per_kstep", Unit: "count", Better: lower},
	{Name: "ckpt.failed_saves", Unit: "count", Better: lower},
	{Name: "ckpt.file_save_ns", Unit: "ns", Better: lower},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: lower},
}
