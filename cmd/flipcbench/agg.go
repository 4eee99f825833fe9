package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"flipc/internal/engine"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/topic"
)

// The A-series aggregation ablation: batch size x flush deadline over
// the real TCP transport, measured against the adaptive latency-budget
// policy. Each cell runs two topics across one loopback link — an
// unthrottled Bulk fanout (the throughput term) and a paced Control
// trickle (the latency term) — and records bulk frames/sec next to the
// control-plane p50/p99. The matrix answers the tuning question the
// adaptive policy automates: bigger batches buy syscall amortization,
// deadlines bound how long a corked frame can age, and the control
// class must never pay either cost (ctl frames bypass the cork).
//
// Every cell closes its books before reporting: the transport-level
// law (accepted = delivered + flush-lost + rx-dropped) must hold
// exactly, and the topic ledgers must account every fanout slot with
// slack no larger than the wire losses.

type aggResult struct {
	Mode             string  `json:"mode"` // uncorked | batch | adaptive
	BatchFrames      int     `json:"batch_frames"`
	FlushDeadlineUs  float64 `json:"flush_deadline_us"`
	FlushBudget      float64 `json:"flush_budget,omitempty"`
	BulkFramesPerSec float64 `json:"bulk_frames_per_sec"`
	BulkP50Us        float64 `json:"bulk_p50_us"`
	BulkP99Us        float64 `json:"bulk_p99_us"`
	CtlP50Us         float64 `json:"ctl_p50_us"`
	CtlP99Us         float64 `json:"ctl_p99_us"`
	CtlPublishes     uint64  `json:"ctl_publishes"`
	BulkPublishes    uint64  `json:"bulk_publishes"`
	Delivered        uint64  `json:"delivered"`
	RecvDropped      uint64  `json:"recv_dropped"`
	PubDropped       uint64  `json:"pub_dropped"`
	Throttled        uint64  `json:"throttled"`
	CtlBypass        uint64  `json:"ctl_bypass"`
	FlushHeld        uint64  `json:"flush_held"`
	FlushLost        uint64  `json:"flush_lost"`
	RxDrops          uint64  `json:"rx_drops"`
}

type aggReport struct {
	Benchmark   string      `json:"benchmark"`
	MessageSize int         `json:"message_size"`
	BulkSubs    int         `json:"bulk_subs"`
	Cores       int         `json:"cores"` // spinning engines contend below ~4
	Results     []aggResult `json:"results"`

	// The chosen operating point: the fastest corked/adaptive cell
	// whose control p99 stays within 1.2x the uncorked baseline, with
	// its throughput and latency ratios against that baseline.
	ChosenMode      string  `json:"chosen_mode"`
	ChosenBatch     int     `json:"chosen_batch_frames"`
	ChosenDeadline  float64 `json:"chosen_flush_deadline_us"`
	BulkSpeedup     float64 `json:"bulk_speedup_vs_uncorked"`
	CtlP99Ratio     float64 `json:"ctl_p99_ratio_vs_uncorked"`
	TargetsMet      bool    `json:"targets_met"` // speedup >= 1.5 and ratio <= 1.2
	TargetSpeedup   float64 `json:"target_speedup"`
	TargetP99Ratio  float64 `json:"target_p99_ratio"`
	UncorkedBulkFPS float64 `json:"uncorked_bulk_frames_per_sec"`
	UncorkedCtlP99  float64 `json:"uncorked_ctl_p99_us"`
}

// aggCell is one matrix point.
type aggCell struct {
	mode     string
	batch    int
	deadline time.Duration
	budget   float64
}

// runAgg runs the ablation matrix and writes the JSON report to path
// ("" or "-" = stdout only). publishes is the bulk publish count per
// cell; the control topic paces itself for the same wall window.
func runAgg(path string, publishes int) error {
	matrix := []aggCell{
		{mode: "uncorked"},
		{mode: "batch", batch: 4},
		{mode: "batch", batch: 16},
		{mode: "batch", batch: 64},
		{mode: "batch", batch: 16, deadline: 100 * time.Microsecond},
		{mode: "batch", batch: 16, deadline: 500 * time.Microsecond},
		{mode: "batch", batch: 64, deadline: 100 * time.Microsecond},
		{mode: "batch", batch: 64, deadline: 500 * time.Microsecond},
		{mode: "adaptive", batch: 64, deadline: 50 * time.Microsecond, budget: 0.25},
	}
	report := aggReport{
		Benchmark: "adaptive_aggregation", MessageSize: msgSize, BulkSubs: aggBulkSubs,
		Cores:         runtime.NumCPU(),
		TargetSpeedup: 1.5, TargetP99Ratio: 1.2,
	}
	for _, cell := range matrix {
		r, err := aggOne(cell, publishes)
		if err != nil {
			return fmt.Errorf("agg %s b=%d dl=%v: %w", cell.mode, cell.batch, cell.deadline, err)
		}
		report.Results = append(report.Results, r)
		fmt.Printf("agg %-9s batch %2d  deadline %6.0fµs: %9.0f bulk frames/s  ctl p50 %7.1fµs p99 %7.1fµs  (bypass %d, held %d)\n",
			r.Mode, r.BatchFrames, r.FlushDeadlineUs, r.BulkFramesPerSec, r.CtlP50Us, r.CtlP99Us,
			r.CtlBypass, r.FlushHeld)
	}

	base := report.Results[0]
	report.UncorkedBulkFPS = base.BulkFramesPerSec
	report.UncorkedCtlP99 = base.CtlP99Us
	// The operating point is the fastest corked cell that holds the
	// control-latency line; when none does, the fastest one anyway, so
	// the regression is visible in the ratios.
	var chosen aggResult
	chosenHolds := false
	for i, r := range report.Results[1:] {
		holds := base.CtlP99Us <= 0 || r.CtlP99Us <= 1.2*base.CtlP99Us
		if i == 0 || holds && !chosenHolds || holds == chosenHolds && r.BulkFramesPerSec > chosen.BulkFramesPerSec {
			chosen, chosenHolds = r, holds
		}
	}
	report.ChosenMode = chosen.Mode
	report.ChosenBatch = chosen.BatchFrames
	report.ChosenDeadline = chosen.FlushDeadlineUs
	if base.BulkFramesPerSec > 0 {
		report.BulkSpeedup = chosen.BulkFramesPerSec / base.BulkFramesPerSec
	}
	if base.CtlP99Us > 0 {
		report.CtlP99Ratio = chosen.CtlP99Us / base.CtlP99Us
	}
	report.TargetsMet = report.BulkSpeedup >= report.TargetSpeedup &&
		report.CtlP99Ratio <= report.TargetP99Ratio
	fmt.Printf("agg operating point: %s batch %d deadline %.0fµs — bulk %.2fx uncorked, ctl p99 %.2fx (targets %.1fx / %.1fx: met=%v)\n",
		report.ChosenMode, report.ChosenBatch, report.ChosenDeadline,
		report.BulkSpeedup, report.CtlP99Ratio, report.TargetSpeedup, report.TargetP99Ratio, report.TargetsMet)

	return writeReport(path, report)
}

const aggBulkSubs = 4

// aggOne runs one matrix cell: two nettrans transports on loopback
// TCP, a publisher domain and a subscriber domain, a Bulk fanout and
// a paced Control trickle sharing the link.
func aggOne(cell aggCell, publishes int) (aggResult, error) {
	subReg := metrics.NewRegistry()
	pubCfg := nettrans.Config{
		Node: 0, Addr: "127.0.0.1:0", MessageSize: msgSize, InboxDepth: 8192,
	}
	if cell.mode != "uncorked" {
		pubCfg.BatchWrites = true
		pubCfg.MaxBatchFrames = cell.batch
		pubCfg.FlushDeadline = cell.deadline
		if cell.budget > 0 {
			pubCfg.FlushBudget = cell.budget
			pubCfg.MaxFlushDelay = time.Millisecond
			// In-process shortcut for the stamp-trailer feedback loop:
			// the receiver's engine measures one-way latency into its
			// registry; a real deployment would carry the p99 back on
			// the wire.
			pubCfg.LatencyProbe = func() (float64, bool) {
				snap := subReg.Histogram("flipc_recv_latency_ns").Snapshot()
				if snap.Count == 0 {
					return 0, false
				}
				return snap.Quantile(0.99), true
			}
		}
	}
	aTr, err := nettrans.ListenConfig(pubCfg)
	if err != nil {
		return aggResult{}, err
	}
	defer aTr.Close()
	bTr, err := nettrans.ListenConfig(nettrans.Config{
		Node: 1, Addr: "127.0.0.1:0", MessageSize: msgSize, InboxDepth: 8192,
	})
	if err != nil {
		return aggResult{}, err
	}
	defer bTr.Close()
	if err := aTr.Dial(1, bTr.Addr()); err != nil {
		return aggResult{}, err
	}

	pubD, err := startDomain(0, aTr, engine.Config{Stamp: true})
	if err != nil {
		return aggResult{}, err
	}
	defer pubD.Close()
	subD, err := startDomain(1, bTr, engine.Config{Metrics: subReg})
	if err != nil {
		return aggResult{}, err
	}
	defer subD.Close()

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	var sinks []*sink // the bulk subscribers, then the control one
	for i := 0; i <= aggBulkSubs; i++ {
		name, class, bufs := "agg-bulk", topic.Bulk, 64
		if i == aggBulkSubs {
			name, class, bufs = "agg-ctl", topic.Control, 32
		}
		s, err := topic.NewSubscriber(subD, dir, name, class, bufs, bufs)
		if err != nil {
			return aggResult{}, err
		}
		sinks = append(sinks, &sink{s: s})
	}
	bulkSinks := sinks[:aggBulkSubs]

	bulkPub, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{
		Topic: "agg-bulk", Class: topic.Bulk, Depth: 64, Window: 256,
	})
	if err != nil {
		return aggResult{}, err
	}
	ctlPub, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{
		Topic: "agg-ctl", Class: topic.Control, Depth: 32, Window: 64,
	})
	if err != nil {
		return aggResult{}, err
	}

	stop := drain(sinks)
	defer stop()

	// Control trickle: one stamped publish every ctlGap until the bulk
	// loop finishes. Its tail latency is the number the flush deadline
	// must protect.
	const ctlGap = 200 * time.Microsecond
	ctlStop := make(chan struct{})
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		// A failed control publish is skipped, not fatal: the books
		// count only what was published, and the bulk loop owns the run.
		_, _ = publishPaced(-1, ctlGap, ctlStop, nil, make([]byte, 8),
			func(b []byte) error { _, _ = ctlPub.Publish(b); return nil })
	}()

	// Bulk load: lightly paced so the offered rate is the same for
	// every cell and the cells differ only in how the transport moves
	// it — publish gap well under the per-frame wire cost, so the link
	// (and the flush policy) is the bottleneck, not the pacing.
	const bulkGap = 5 * time.Microsecond
	t0, err := publishPaced(publishes, bulkGap, nil, nil, make([]byte, 8),
		func(b []byte) error { _, err := bulkPub.Publish(b); return err })
	if err != nil {
		close(ctlStop)
		return aggResult{}, err
	}
	elapsed := time.Since(t0)
	close(ctlStop)
	ctlWG.Wait()

	// Settle: corked frames drain on the engines' end-of-pass flushes;
	// the books close when every fanout slot is accounted, with slack
	// no larger than the wire's own counted losses.
	slots := func() uint64 {
		return bulkPub.Published()*uint64(aggBulkSubs) + ctlPub.Published()
	}
	accounted := func() uint64 {
		delivered, dropped := received(sinks...)
		return delivered + dropped + bulkPub.Dropped() + bulkPub.Throttled() +
			ctlPub.Dropped() + ctlPub.Throttled()
	}
	wireLost := func() uint64 {
		return aTr.Stats().FlushLost + bTr.Stats().RxDrops
	}
	waitUntil(20*time.Second, func() bool {
		a, b := aTr.Stats(), bTr.Stats()
		return accounted()+wireLost() >= slots() &&
			a.Sent == b.Delivered+a.FlushLost+b.RxDrops
	})
	stop()

	aSt, bSt := aTr.Stats(), bTr.Stats()
	// Transport-level conservation: every frame the transport accepted
	// was delivered, counted flush-lost, or counted rx-dropped.
	if aSt.Sent != bSt.Delivered+aSt.FlushLost+bSt.RxDrops {
		return aggResult{}, fmt.Errorf("transport conservation violated: accepted %d != delivered %d + flush-lost %d + rx-drops %d",
			aSt.Sent, bSt.Delivered, aSt.FlushLost, bSt.RxDrops)
	}
	// Topic-level: unaccounted fanout slots can only be wire losses.
	if acc, sl := accounted(), slots(); acc > sl || sl-acc > wireLost() {
		return aggResult{}, fmt.Errorf("topic conservation violated: accounted %d of %d slots, wire lost %d",
			acc, sl, wireLost())
	}

	res := aggResult{
		Mode:            cell.mode,
		BatchFrames:     cell.batch,
		FlushDeadlineUs: float64(cell.deadline) / 1e3,
		FlushBudget:     cell.budget,
		BulkPublishes:   bulkPub.Published(),
		CtlPublishes:    ctlPub.Published(),
		PubDropped:      bulkPub.Dropped() + ctlPub.Dropped(),
		Throttled:       bulkPub.Throttled() + ctlPub.Throttled(),
		CtlBypass:       aSt.CtlBypass,
		FlushHeld:       aSt.FlushHeld,
		FlushLost:       aSt.FlushLost,
		RxDrops:         bSt.RxDrops,
	}
	// Latency percentiles over the steady-state window only: the first
	// tenth warms the pipeline up, and anything published after the
	// bulk loop ended measures the backlog draining, not the flush
	// policy under load.
	lo := t0.Add(elapsed / 10).UnixNano()
	hi := t0.Add(elapsed).UnixNano()
	steady := func(s sample) bool { return s.sentNs >= lo && s.sentNs <= hi }
	res.Delivered, res.RecvDropped = received(sinks...)
	res.BulkFramesPerSec = float64(bulkPub.Sent()) / elapsed.Seconds()
	res.BulkP50Us, res.BulkP99Us = p50p99(latencies(bulkSinks, steady))
	res.CtlP50Us, res.CtlP99Us = p50p99(latencies(sinks[aggBulkSubs:], steady))
	return res, nil
}
