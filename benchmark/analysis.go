package main

import (
	"slices"
	"sort"
)

// Span analysis: turns the traced run's spans and frame counts into the
// per-layer numbers measured at the interposed boundaries.
//
// Two derived intervals carry most of it. A coordinator link is in
// flight from the start of a Send until the Recv that returns the
// matching reply (every command frame is answered by exactly one frame),
// so while any link is in flight the coordinator is waiting on hosts or
// the transport, and a call's remaining time is the coordinator's own. A
// serve end is busy from a Recv's return to its next Recv call: decode,
// node bank work, encode and Send.

// endSpans is one link end's spans, each list in time order.
type endSpans struct {
	end                 *tracedLink
	sends, flushes, rcv []span
}

func (t *tracer) byEnd() []endSpans {
	out := make([]endSpans, len(t.ends))
	for i, e := range t.ends {
		out[i].end = e
		for _, s := range e.out.take() {
			if s.kind == spanSend {
				out[i].sends = append(out[i].sends, s)
			} else {
				out[i].flushes = append(out[i].flushes, s)
			}
		}
		out[i].rcv = slices.Clone(e.in.take())
	}
	return out
}

// inFlight returns the intervals during which the link end has sent
// frames whose replies it has not yet received.
func (e endSpans) inFlight() []interval {
	type event struct {
		at    int64
		delta int
	}
	evs := make([]event, 0, len(e.sends)+len(e.rcv))
	for _, s := range e.sends {
		evs = append(evs, event{s.start, +1})
	}
	for _, s := range e.rcv {
		evs = append(evs, event{s.end, -1})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	var out []interval
	open, since := 0, int64(0)
	for _, ev := range evs {
		if open == 0 && ev.delta > 0 {
			since = ev.at
		}
		open += ev.delta
		if open < 0 {
			open = 0 // a reply to a frame sent before the region began
		}
		if open == 0 && ev.delta < 0 && ev.at > since {
			out = append(out, interval{since, ev.at})
		}
	}
	return out
}

// busy returns the intervals between a Recv's return and the next Recv
// call on a serve end.
func (e endSpans) busy() []interval {
	var out []interval
	for i := 0; i+1 < len(e.rcv); i++ {
		if lo, hi := e.rcv[i].end, e.rcv[i+1].start; hi > lo {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

func spanIntervals(ss []span) []interval {
	out := make([]interval, len(ss))
	for i, s := range ss {
		out[i] = interval{s.start, s.end}
	}
	return out
}

func sumLen(ivs []interval) (ns int64) {
	for _, iv := range ivs {
		ns += iv.hi - iv.lo
	}
	return ns
}

func sumDur(ss []span) (ns int64) {
	for _, s := range ss {
		ns += s.end - s.start
	}
	return ns
}

// coveredPerCall returns, for the calls in roots (time-ordered and
// disjoint), the total time ivs cover inside them.
func coveredPerCall(roots []span, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	j := 0
	var in []interval
	for _, r := range roots {
		in = in[:0]
		for j < len(ivs) && ivs[j].hi <= r.start {
			j++
		}
		for i := j; i < len(ivs) && ivs[i].lo < r.end; i++ {
			in = append(in, ivs[i])
		}
		total += unionLen(in, r.start, r.end)
	}
	return total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// analyze fills m with the traced (T) and counted (C) per-layer metrics
// of one traced run.
func analyze(w spec, r *runResult, t *tracer, m map[string]float64) {
	var roots []span
	var drains []int64
	for _, s := range t.root.take() {
		switch s.kind {
		case spanObserve:
			roots = append(roots, s)
		case spanDrain:
			drains = append(drains, s.end-s.start)
		}
	}
	calls := float64(max(len(roots), 1))
	rootNs := float64(sumDur(roots))

	// topk: pooled tail latency is a diagnostic only; the host is shared.
	durs := make([]int64, len(roots))
	for i, s := range roots {
		durs[i] = s.end - s.start
	}
	m["topk.step_p99_us"] = float64(percentile(durs, 0.99)) / 1e3
	m["topk.step_max_us"] = float64(percentile(durs, 1)) / 1e3

	// Children of the root span on the harness's side of the API: link
	// time on the coordinator ends, and checkpoint saves.
	ends := t.byEnd()
	var coordCover []interval
	var coordEnds, hostEnds, agentEnds, interiorEnds []endSpans
	for _, e := range ends {
		switch e.end.role {
		case roleCoord:
			coordEnds = append(coordEnds, e)
		case roleHost:
			hostEnds = append(hostEnds, e)
		case roleAgent:
			agentEnds = append(agentEnds, e)
		case roleInterior:
			interiorEnds = append(interiorEnds, e)
		}
	}
	var sendNs, flushNs, waitNs int64
	var sends, flushes, rcvFrames, frames, payload int64
	var wait []interval
	for _, e := range coordEnds {
		fl := e.inFlight()
		wait = append(wait, fl...)
		waitNs += sumLen(fl)
		sendNs += sumDur(e.sends)
		flushNs += sumDur(e.flushes)
		sends += int64(len(e.sends))
		flushes += int64(len(e.flushes))
		rcvFrames += int64(len(e.rcv))
		coordCover = append(coordCover, spanIntervals(e.sends)...)
		coordCover = append(coordCover, spanIntervals(e.flushes)...)
		frames += e.end.sent.frames.Load() + e.end.rcvd.frames.Load()
		payload += e.end.sent.bytes.Load() + e.end.rcvd.bytes.Load()
	}
	coordCover = append(coordCover, wait...)
	if t.store != nil {
		coordCover = append(coordCover, spanIntervals(t.store.buf.take())...)
	}
	self := rootNs - float64(coveredPerCall(roots, coordCover))
	m["topk.observe_self_ns"] = self / calls

	if len(coordEnds) > 0 {
		m["transport.send_ns_per_frame"] = ratio(float64(sendNs), float64(sends))
		m["transport.flush_ns_per_flush"] = ratio(float64(flushNs), float64(flushes))
		m["transport.flushes_per_step"] = float64(flushes) / calls
		m["transport.recv_wait_ns_per_frame"] = ratio(float64(waitNs), float64(rcvFrames))
		m["transport.recv_wait_share"] = ratio(float64(coveredPerCall(roots, wait)), rootNs)
		m["wire.frames_per_step"] = float64(frames) / calls
		m["wire.bytes_per_frame"] = ratio(float64(payload), float64(frames))
	}

	// busyOf sums a set of serve ends: total busy time, frames, and the
	// busiest end's share of the mean.
	busyOf := func(es []endSpans) (ns, frames float64, skew float64) {
		var most float64
		for _, e := range es {
			b := float64(sumLen(e.busy()))
			ns += b
			most = max(most, b)
			frames += float64(len(e.rcv))
		}
		return ns, frames, ratio(most, ns/float64(max(len(es), 1)))
	}
	switch w.Engine {
	case engPipe, engTCP:
		ns, fr, skew := busyOf(hostEnds)
		m["netrun.host_busy_ns_per_frame"] = ratio(ns, fr)
		m["netrun.host_busy_share"] = ratio(ns/float64(max(len(hostEnds), 1)), rootNs)
		m["netrun.peer_skew"] = skew
		m["netrun.coord_self_ns_per_step"] = self / calls
	case engTree:
		ns, fr, _ := busyOf(agentEnds)
		m["shardrun.agent_busy_ns_per_frame"] = ratio(ns, fr)
		m["shardrun.root_self_ns_per_step"] = self / calls
		// An interior's own time is its busy time minus what it spent
		// waiting on its children's links.
		var iself, iframes float64
		for _, in := range interiorEnds {
			busy := in.busy()
			var kids []interval
			for _, e := range ends {
				if e.end.role == roleRelay && e.end.index/w.Branch == in.end.index {
					kids = append(kids, e.inFlight()...)
				}
			}
			sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
			j := 0
			for _, b := range busy {
				for j < len(kids) && kids[j].hi <= b.lo {
					j++
				}
				var in []interval
				for i := j; i < len(kids) && kids[i].lo < b.hi; i++ {
					in = append(in, kids[i])
				}
				iself += float64(selfTime(b, in))
			}
			iframes += float64(len(in.rcv))
		}
		m["shardrun.interior_self_ns_per_frame"] = ratio(iself, iframes)
		m["shardrun.root_frames_per_step"] = float64(r.Delta.LinkFrames) / calls
		m["shardrun.root_bytes_per_step"] = float64(r.Delta.LinkBytes) / calls
	}

	if w.Async {
		m["ingest.enqueue_p50_ns"] = float64(percentile(durs, 0.5))
		m["ingest.enqueue_p99_ns"] = float64(percentile(durs, 0.99))
		m["ingest.drain_wait_p50_us"] = float64(percentile(drains, 0.5)) / 1e3
		m["ingest.coalesce_ratio"] = ratio(float64(r.Ingest.Coalesced), float64(r.Ingest.Enqueued))
		m["ingest.max_queue"] = float64(r.Ingest.MaxQueue)
	}
	if t.store != nil {
		saves := t.store.buf.take()
		n := float64(t.store.saves.Load())
		m["ckpt.save_ns"] = ratio(float64(sumDur(saves)), n)
		// What a checkpointing call costs beyond its Save and beyond the
		// typical call without one: snapshot, frame encode and CRC.
		saved := map[int32]int64{}
		for _, s := range saves {
			saved[s.step] += s.end - s.start
		}
		var plain []int64
		var extra float64
		for _, r := range roots {
			if d, ok := saved[r.step]; ok {
				extra += float64(r.end - r.start - d)
			} else {
				plain = append(plain, r.end-r.start)
			}
		}
		m["ckpt.encode_ns"] = max(ratio(extra, float64(len(saved)))-float64(percentile(plain, 0.5)), 0)
		m["ckpt.frame_bytes"] = ratio(float64(t.store.bytes.Load()), n)
		m["ckpt.frame_bytes_per_node"] = m["ckpt.frame_bytes"] / float64(w.N)
		m["ckpt.saves_per_kstep"] = 1000 * n / calls
		m["ckpt.failed_saves"] = float64(t.store.fails.Load())
	}
}
