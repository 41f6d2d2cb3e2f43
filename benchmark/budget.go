package main

import (
	"fmt"
	"io"
	"runtime"
)

// The budget table sets the measured cost of a workload's dominant kind
// of step against a sum of layer operations per step times their
// unit costs: isolated ones where the layer has exported functions to
// drive, traced ones where it has not (leaf agents, transport hand-off,
// the ingest queue). With one caller and nothing contending, a faster
// layer saves at most its row; what no row explains is printed as the
// remainder, not hidden. Operation counts are counted in the traced run:
// values, broadcasts and coordinator frames per call of the class. Every
// protocol round ends with one broadcast and every command frame is
// answered by one frame, so broadcasts count protocol rounds and frames
// count fan-out/gather rounds.

type budgetRow struct {
	Layer  string  `json:"layer"`
	Op     string  `json:"op"`
	Metric string  `json:"unit_metric"`
	Count  float64 `json:"count_per_step"`
	UnitNs float64 `json:"unit_ns"`
	Ns     float64 `json:"ns"`
}

type budget struct {
	// Target names what is explained: a step class's median, or the mean
	// call where the cost is spread unevenly over calls of one class.
	Target          string      `json:"target"`
	MeasuredNs      float64     `json:"measured_ns"`
	Rows            []budgetRow `json:"rows"`
	AttributedNs    float64     `json:"attributed_ns"`
	RemainderNs     float64     `json:"remainder_ns"`
	AttributedShare float64     `json:"attributed_share"`
}

// classMeans averages a per-call quantity over the calls of class c.
func classMeans(cls []class, c class, per []float64) float64 {
	var sum float64
	var n int
	for i, v := range per {
		if i < len(cls) && cls[i] == c {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// makeBudget builds the table for w from the untraced summary (the
// measured side), the traced run's per-call counts and the per-layer
// unit costs in m.
func makeBudget(w spec, sum summary, tr *runResult, framesPerCall []float64, m map[string]float64) budget {
	b := budget{}
	rowNs := func(layer, op, metric string, count, unitNs float64) {
		r := budgetRow{Layer: layer, Op: op, Metric: metric, Count: count, UnitNs: unitNs, Ns: count * unitNs}
		b.Rows = append(b.Rows, r)
		b.AttributedNs += r.Ns
	}
	row := func(layer, op, metric string, count float64) { rowNs(layer, op, metric, count, m[metric]) }

	c := w.Dominant
	updates := make([]float64, len(tr.Updates))
	for i, u := range tr.Updates {
		updates[i] = float64(u)
	}
	cls := tr.Class
	if cls == nil { // async: every call is of the one class
		cls = make([]class, len(updates))
	}
	u := classMeans(cls, c, updates)
	frames := classMeans(cls, c, framesPerCall)

	if w.BudgetMean {
		b.Target = "mean call"
		b.MeasuredNs = 1e9 / sum.Values["steps_per_s"]
	} else {
		b.Target = c.String() + " p50"
		b.MeasuredNs = 1e3 * sum.Values[c.String()+"_p50_us"]
	}

	fan := float64(w.fanout())
	bcasts := make([]float64, len(tr.Bcasts))
	for i, x := range tr.Bcasts {
		bcasts[i] = float64(x)
	}
	// Executions of Algorithm 2, counted as broadcast rounds over the
	// rounds one execution has; gathers are the coordinator's round trips.
	execs := ratio(classMeans(cls, c, bcasts), m["protocol.rounds_per_exec"])
	gathers := frames / (2 * fan)
	switch {
	case w.Async:
		// The caller pays for the enqueue alone; the engine's work is the
		// worker's, off the caller's path unless the queue is full.
		row("ingest", "producer-side call span, p50 (traced)", "ingest.enqueue_p50_ns", 1)
		row("ingest", "Drain wait, p50 (traced)", "ingest.drain_wait_p50_us", 1e3/float64(w.DrainEvery))
	case w.CkptEvery > 0:
		row("core", "delta updates", "core.observe_delta_ns_per_update", u)
		row("ckpt", "snapshot and frame encode", "ckpt.encode_ns", m["ckpt.saves_per_kstep"]/1000)
		row("ckpt", "store Save", "ckpt.save_ns", m["ckpt.saves_per_kstep"]/1000)
	case w.Engine == engSeq && c == classQuiet:
		row("core", "delta updates", "core.observe_delta_ns_per_update", u)
	case w.Engine == engSeq:
		row("coord", "per-node encode and filter check", "coord.nodes_observe_ns_per_update", u)
		row("protocol", "executions (broadcast rounds / rounds per execution)", "protocol.exec_ns_n", execs)
		row("filter", "band install", "filter.assign_band_ns", 1)
		row("filter", "membership install", "filter.set_membership_ns", 1)
		row("coord", "machine step", "coord.machine_quiet_step_ns", 1)
	case w.Engine == engPipe && c == classQuiet:
		kb := frames * m["wire.bytes_per_frame"] / 1024 // the value frames carry nearly all of it
		row("wire", "Observe encode, all peers, serial", "wire.observe_enc_ns_per_value", u)
		row("transport", "value frames through the pipes (KB)", "transport.pipe_bulk_ns_per_kb", kb)
		row("wire", "Observe decode, one host's share", "wire.observe_dec_ns_per_value", u/fan)
		row("coord", "host node bank, one host's share", "coord.nodes_observe_ns_per_update", u/fan)
		row("coord", "machine step", "coord.machine_quiet_step_ns", 1)
	case w.Engine == engPipe || w.Engine == engTCP:
		// A command is in flight from its Send to its reply's Recv; the
		// hosts are busy for part of that, side by side, and the rest is
		// the transport's: syscalls, flushes and goroutine wake-ups.
		busy, wait := m["netrun.host_busy_ns_per_frame"], m["transport.recv_wait_ns_per_frame"]
		row("netrun", "hosts busy per command, side by side (traced)", "netrun.host_busy_ns_per_frame", gathers)
		rowNs("transport", "in flight beyond host busy, per round trip (traced)", "transport.recv_wait_ns_per_frame - netrun.host_busy_ns_per_frame", gathers, max(wait-busy, 0))
		row("wire", "Round encode, all peers", "wire.round_enc_ns", gathers*fan)
		row("wire", "Reply decode, all peers", "wire.reply_dec_ns", gathers*fan)
		row("wire", "Observe encode, all peers, serial", "wire.observe_enc_ns_per_value", u)
	case w.Engine == engTree:
		leaves := 1.0
		for i := 0; i < w.Depth; i++ {
			leaves *= float64(w.Branch)
		}
		par := min(leaves, float64(runtime.GOMAXPROCS(0)))
		// The leaf agents are unexported, so their unit cost is the
		// traced busy time per frame; each root round reaches every leaf
		// through one pipe hop per level.
		row("transport", "pipe round trips per root round, one per level", "transport.pipe_rtt_ns", gathers*float64(w.Depth))
		row("shardrun", "leaf agents per root round, leaves/threads at a time", "shardrun.agent_busy_ns_per_frame", gathers*leaves/par)
		row("shardrun", "interior relays per root round, side by side", "shardrun.interior_self_ns_per_frame", gathers)
		row("wire", "digest decode, all root links", "wire.digest_dec_ns", gathers*fan)
		row("wire", "Round encode, all root links", "wire.round_enc_ns", gathers*fan)
		row("wire", "Observe encode, serial", "wire.observe_enc_ns_per_value", u)
	}
	b.RemainderNs = b.MeasuredNs - b.AttributedNs
	if b.MeasuredNs > 0 {
		b.AttributedShare = b.AttributedNs / b.MeasuredNs
	}
	return b
}

// print writes the table in the layout of the result summary.
func (b budget) print(out io.Writer, name string) {
	fmt.Fprintf(out, "budget %s — %s = %.1f us\n", name, b.Target, b.MeasuredNs/1e3)
	for _, r := range b.Rows {
		fmt.Fprintf(out, "  %-10s %-52s %12.2f x %10.1f ns = %10.1f us  (%s)\n", r.Layer, r.Op, r.Count, r.UnitNs, r.Ns/1e3, r.Metric)
	}
	fmt.Fprintf(out, "  attributed %.1f us (%.0f%%), remainder %.1f us\n", b.AttributedNs/1e3, 100*b.AttributedShare, b.RemainderNs/1e3)
}
