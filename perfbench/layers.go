package main

import (
	"runtime"

	"flipc/internal/metrics"
	"flipc/internal/nettrans"
)

// engineCounts is the part of the engine's mirrored statistics the
// per-layer report uses.
type engineCounts struct {
	polls, doorbells, recvDrops, wireBusy, peerDown uint64
}

func engineFrom(s metrics.Snapshot) engineCounts {
	return engineCounts{
		polls:     s.Counters["flipc_engine_polls_total"],
		doorbells: s.Counters["flipc_engine_doorbells_total"],
		recvDrops: s.Counters["flipc_engine_recv_drops_total"],
		wireBusy:  s.Counters["flipc_engine_wire_busy_total"],
		peerDown:  s.Counters["flipc_engine_peer_down_total"],
	}
}

func (a engineCounts) plus(b engineCounts) engineCounts {
	return engineCounts{a.polls + b.polls, a.doorbells + b.doorbells, a.recvDrops + b.recvDrops,
		a.wireBusy + b.wireBusy, a.peerDown + b.peerDown}
}

// reportEngine reports the engines' window deltas per message.
func reportEngine(rep *report, before, after engineCounts, msgs float64) {
	if msgs > 0 {
		rep.set("engine.polls_per_msg", float64(after.polls-before.polls)/msgs, "polls/msg")
		rep.set("engine.doorbells_per_msg", float64(after.doorbells-before.doorbells)/msgs, "doorbells/msg")
	}
	rep.set("engine.recv_drops", float64(after.recvDrops-before.recvDrops), "count")
	rep.set("engine.wire_busy", float64(after.wireBusy-before.wireBusy), "count")
	rep.set("engine.peer_down", float64(after.peerDown-before.peerDown), "count")
}

// reportGo reports this process's heap allocations per message over
// the window.
func reportGo(rep *report, before, after runtime.MemStats, msgs float64) {
	if msgs <= 0 {
		return
	}
	rep.set("go.allocs_per_msg", float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
	rep.set("go.bytes_per_msg", float64(after.TotalAlloc-before.TotalAlloc)/msgs, "B/msg")
}

// reportTransport reports the timing wrapper's counts and the
// transport's own loss counters; ws may hold several wrappers whose
// counts are summed (both ends of one connection).
func reportTransport(rep *report, w *timedTransport, before, after nettrans.Stats, more ...*timedTransport) {
	ws := append([]*timedTransport{w}, more...)
	var sends, refused, polls, hits, flushes, frames int64
	send, flush := newSamples(1<<19), newSamples(1<<17)
	for _, w := range ws {
		sends += w.sends
		refused += w.refuse
		polls += w.polls
		hits += w.hits
		flushes += w.flushes
		frames += w.flushFrames
		for _, v := range w.trySend.v {
			send.add(v)
		}
		for _, v := range w.flush.v {
			flush.add(v)
		}
	}
	p := w.prefix
	if p == "fabric" {
		if polls > 0 {
			rep.set("fabric.poll_hit_ratio", float64(hits)/float64(polls), "ratio")
		}
		return
	}
	sorted := send.sorted()
	rep.timing(p+".trysend_ns.p50", sorted, 50, 1, "ns")
	rep.timing(p+".trysend_ns.p99", sorted, 99, 1, "ns")
	if sends > 0 {
		rep.set(p+".trysend_refused_ratio", float64(refused)/float64(sends), "ratio")
	}
	if polls > 0 {
		rep.set(p+".poll_hit_ratio", float64(hits)/float64(polls), "ratio")
	}
	if flushes > 0 {
		rep.set(p+".frames_per_flush", float64(frames)/float64(flushes), "frames")
		rep.timing(p+".flush_ns.p50", flush.sorted(), 50, 1, "ns")
	}
	rep.set(p+".rx_drops", float64(after.RxDrops-before.RxDrops), "count")
	rep.set(p+".flush_lost", float64(after.FlushLost-before.FlushLost), "count")
	rep.set(p+".ctl_bypass", float64(after.CtlBypass-before.CtlBypass), "count")
}

// reportOneway reports the median of the stamp-trailer one-way latency
// histogram's growth over the window.
func reportOneway(rep *report, name string, before, after metrics.HistSnapshot) {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	if len(before.Buckets) == len(after.Buckets) {
		d.Buckets = append([]uint64(nil), after.Buckets...)
		for i := range d.Buckets {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	if d.Count < 2*minBeyond {
		rep.problem("%s: only %d stamped frames in the window", name, d.Count)
		return
	}
	rep.metrics[name] = metric{value: d.Quantile(0.5), unit: "ns", n: int64(d.Count)}
}

func sumStats(a, b nettrans.Stats) nettrans.Stats {
	return nettrans.Stats{
		Sent: a.Sent + b.Sent, Delivered: a.Delivered + b.Delivered, PeerDowns: a.PeerDowns + b.PeerDowns,
		RxDrops: a.RxDrops + b.RxDrops, Reconnects: a.Reconnects + b.Reconnects,
		FlushLost: a.FlushLost + b.FlushLost, CtlBypass: a.CtlBypass + b.CtlBypass, FlushHeld: a.FlushHeld + b.FlushHeld,
	}
}
