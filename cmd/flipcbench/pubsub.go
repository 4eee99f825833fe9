package main

import (
	"fmt"
	"os"
	"time"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// The pub/sub benchmark: wall-clock fanout throughput and one-way
// latency through internal/topic on the in-process Fabric, at fanout
// 1, 8, and 64. Each publish stamps its send time into the payload;
// every delivery yields one latency sample. Drops (publisher window or
// subscriber inbox) are counted, never silent, so the run also checks
// the fanout conservation law before reporting.
//
// Beyond the plain baseline widths, the matrix runs a slow-subscriber
// pair at fanout 8 — one subscriber draining far below the publish
// rate, with per-topic receive credit off and then on — recording the
// before/after of the credit loop: without credit the slow inbox
// overruns (recv_dropped), with credit the overrun converts into
// publisher throttles (throttled) and the drop ledger stays clean.

type pubsubResult struct {
	Scenario      string  `json:"scenario"`
	Credit        bool    `json:"credit"`
	Durable       bool    `json:"durable,omitempty"`
	PayloadBytes  int     `json:"payload_bytes"`
	Subscribers   int     `json:"subscribers"`
	Publishes     uint64  `json:"publishes"`
	FanoutSent    uint64  `json:"fanout_sent"`
	FanoutDropped uint64  `json:"fanout_dropped"`
	Throttled     uint64  `json:"throttled"`
	Deferred      uint64  `json:"deferred,omitempty"`
	Replayed      uint64  `json:"replayed,omitempty"`
	Delivered     uint64  `json:"delivered"`
	RecvDropped   uint64  `json:"recv_dropped"`
	PublishPerSec float64 `json:"publish_per_sec"`
	FramesPerSec  float64 `json:"frames_per_sec"`
	LatencyP50Us  float64 `json:"latency_p50_us"`
	LatencyP99Us  float64 `json:"latency_p99_us"`
	Samples       int     `json:"latency_samples"`
}

type pubsubReport struct {
	Benchmark   string         `json:"benchmark"`
	MessageSize int            `json:"message_size"`
	Class       string         `json:"class"`
	Results     []pubsubResult `json:"results"`
}

// runPubsub benchmarks the scenario matrix and writes the JSON report
// to path ("-" or "" = stdout only; a file also gets a human summary on
// stdout).
func runPubsub(path string, publishes int) error {
	report := pubsubReport{Benchmark: "pubsub_fanout", MessageSize: msgSize, Class: topic.Normal.String()}
	matrix := []struct {
		scenario string
		subs     int
		payload  int // publish payload bytes (0 = the 8-byte stamp alone)
		slow     bool
		credit   bool
		durable  bool
	}{
		{"baseline", 1, 0, false, false, false},
		{"baseline", 8, 0, false, false, false},
		{"baseline", 64, 0, false, false, false},
		// Copy ablation at the widest fanout: identical descriptor work
		// (64 sends, 64 inbox passes per publish) with the payload grown
		// from the bare 8-byte stamp to the full 120-byte MTU. The fanout
		// path stages the payload once and the engine copies per send, so
		// the delta against baseline-64 prices the per-byte copy cost in
		// isolation from the per-frame descriptor cost.
		{"fullpayload", 64, 120, false, false, false},
		{"slow_nocredit", 8, 0, true, false, false},
		{"slow_credit", 8, 0, true, true, false},
		// The durability tax: same width as the fanout-8 baseline, with
		// every publish journaled (sequence prefix + duralog append) and
		// the subscribers running the exactly-once replay seam. The
		// live-path p50/p99 delta against the baseline row is the cost
		// of the durable tap.
		{"durable", 8, 0, false, false, true},
	}
	for _, m := range matrix {
		r, err := pubsubOne(m.subs, publishes, m.payload, m.slow, m.credit, m.durable)
		if err != nil {
			return fmt.Errorf("pubsub %s fanout %d: %w", m.scenario, m.subs, err)
		}
		r.Scenario, r.Credit, r.Durable = m.scenario, m.credit, m.durable
		report.Results = append(report.Results, r)
		fmt.Printf("pubsub %-13s %2d subs: %8.0f publish/s %10.0f frames/s  p50 %7.1fµs  p99 %7.1fµs  (delivered %d, dropped pub %d + recv %d, throttled %d)\n",
			m.scenario, r.Subscribers, r.PublishPerSec, r.FramesPerSec, r.LatencyP50Us, r.LatencyP99Us,
			r.Delivered, r.FanoutDropped, r.RecvDropped, r.Throttled)
	}
	return writeReport(path, report)
}

// pubsubOne runs one cell. payloadBytes pads every publish to that
// size (minimum and default the 8-byte latency stamp) — the copy
// ablation's lever. With slow set, subscriber 0 drains an order
// of magnitude below the publish rate (its latency samples are excluded
// — the fast subscribers' tail is what the scenario measures); with
// credit set, the topic runs the per-subscriber receive-credit loop;
// with durable set, every publish is journaled to a duralog and the
// subscribers run the replay seam (replayed deliveries are excluded
// from the latency sample — they measure recovery, not the pipeline).
func pubsubOne(subs, publishes, payloadBytes int, slow, credit, durable bool) (pubsubResult, error) {
	const (
		subNodes = 4 // subscriber domains; fanout spreads round-robin
		subBufs  = 64
	)
	ds, closeAll, err := fabricDomains(1 + subNodes)
	if err != nil {
		return pubsubResult{}, err
	}
	defer closeAll()
	pubD, subDs := ds[0], ds[1:]

	// The paced publish gap (below) sets the offered rate; the slow
	// subscriber consumes one message per slowdown gaps.
	gap := time.Duration(subs)*2*time.Microsecond + 10*time.Microsecond
	if durable {
		// The baseline pacing deliberately overdrives the engine a few
		// percent; those window drops are counted loss there. On a
		// durable topic the same backpressure instant re-enters the
		// subscriber into journal catch-up, and the replay pump riding
		// each publish keeps the congestion alive — the row would
		// measure a self-sustaining replay collapse, not the tap. Pace
		// at the durable pipeline's sustainable rate so the seam stays
		// live and p50/p99 price the journal append + seq prefix.
		gap *= 2
	}
	const slowdown = 20

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	sinks := make([]*sink, subs)
	for i := range sinks {
		var s *topic.Subscriber
		var err error
		switch {
		case durable:
			s, err = topic.NewSubscriberDurable(subDs[i%subNodes], dir, "bench", topic.Normal,
				subBufs, subBufs, fmt.Sprintf("bench/sub-%02d", i))
		case credit:
			s, err = topic.NewSubscriberCredit(subDs[i%subNodes], dir, "bench", topic.Normal,
				subBufs, subBufs, topic.CreditConfig{})
		default:
			s, err = topic.NewSubscriber(subDs[i%subNodes], dir, "bench", topic.Normal, subBufs, subBufs)
		}
		if err != nil {
			return pubsubResult{}, err
		}
		sinks[i] = &sink{s: s, renew: durable}
		if slow && i == 0 {
			sinks[i].delay = slowdown * gap
		}
	}

	window := topic.PublisherWindow(subs, 4)
	if window < 64 {
		window = 64
	}
	if durable {
		// On a durable topic an outbox-backpressure drop is not a drop:
		// it re-enters the subscriber into catch-up, pulling the stream
		// through the journal until the seam re-locks. The baseline rows
		// tolerate a few percent of window drops as counted loss; here
		// the same shortfall would put most of the run on the replay
		// path and measure recovery instead of the tap. Size the window
		// to the offered burst so the measured phase stays live.
		window *= 4
	}
	var dlog *duralog.Log
	if durable {
		durDir, err := os.MkdirTemp("", "flipcbench-duralog-")
		if err != nil {
			return pubsubResult{}, err
		}
		defer os.RemoveAll(durDir)
		if dlog, err = duralog.Open(durDir, duralog.Options{NoSync: true}); err != nil {
			return pubsubResult{}, err
		}
		defer dlog.Close()
	}
	pub, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{
		Topic: "bench", Class: topic.Normal, Depth: 64, Window: window, Credit: credit, Log: dlog})
	if err != nil {
		return pubsubResult{}, err
	}
	if pub.Subscribers() != subs {
		return pubsubResult{}, fmt.Errorf("plan has %d subscribers, want %d", pub.Subscribers(), subs)
	}

	// Durable seam handshake before the drains start (and before the
	// clock): hello → resume → grant on every subscriber, driven from
	// this goroutine while it still owns the inboxes, so the measured
	// phase runs entirely on the live path.
	if durable {
		var renewErr error
		locked := waitUntil(2*time.Second, func() bool {
			locked := true
			for _, k := range sinks {
				for {
					if _, _, ok := k.s.Receive(); !ok {
						break
					}
				}
				if renewErr = k.s.Renew(); renewErr != nil {
					return true
				}
				locked = locked && k.s.DurableLocked()
			}
			pub.PumpReplay(0)
			return locked
		})
		if renewErr != nil {
			return pubsubResult{}, renewErr
		}
		if !locked {
			return pubsubResult{}, fmt.Errorf("durable seam handshake incomplete")
		}
	}

	stop := drain(sinks)
	defer stop()

	// Credit handshake before the clock starts: hellos answered, every
	// account live, so the measured phase runs fully credited.
	if credit && !waitUntil(2*time.Second, func() bool { return pub.CreditAdverts() >= subs }) {
		return pubsubResult{}, fmt.Errorf("credit handshake incomplete: %d/%d adverts", pub.CreditAdverts(), subs)
	}

	// Paced publish loop: a gap proportional to fanout keeps the
	// offered load near the engine's sustainable rate so latency
	// measures the pipeline, not an unbounded backlog.
	if payloadBytes < 8 {
		payloadBytes = 8
	}
	var pumpReplay func()
	if durable {
		// Housekeeping pump in the pacing gap: a heal round opened by a
		// backpressure deferral lands as soon as the engine frees a
		// slot, instead of waiting for the next publish to drive it.
		pumpReplay = func() { pub.PumpReplay(0) }
	}
	t0, err := publishPaced(publishes, gap, nil, pumpReplay, make([]byte, payloadBytes),
		func(b []byte) error { _, err := pub.Publish(b); return err })
	if err != nil {
		return pubsubResult{}, err
	}
	elapsed := time.Since(t0)
	// The fanout law. Durable conservation is stronger: every loss
	// heals by replay, so the run quiesces only when every subscriber
	// has every publish — exactly once, nothing outstanding.
	balanced := func() bool {
		delivered, dropped := received(sinks...)
		if durable {
			return delivered == pub.Published()*uint64(subs)
		}
		return delivered+dropped+pub.Dropped()+pub.Throttled() == pub.Published()*uint64(subs)
	}
	// Let in-flight frames land, then stop the drains. The slow
	// subscriber needs real time: up to a full inbox at its sleep rate.
	waitUntil(2*time.Second+time.Duration(subBufs)*slowdown*gap, func() bool {
		if durable {
			pub.PumpReplay(0)
		}
		return balanced()
	})
	stop()

	delivered, recvDropped := received(sinks...)
	if !balanced() {
		return pubsubResult{}, fmt.Errorf("conservation violated (durable %v): %d delivered + %d recv-dropped + %d pub-dropped + %d throttled != %d published x %d (stranded %d)",
			durable, delivered, recvDropped, pub.Dropped(), pub.Throttled(), pub.Published(), subs, pub.ReplayStranded())
	}
	fast := sinks // the slow subscriber's latency is its own sleep
	if slow {
		fast = sinks[1:]
	}
	lat := latencies(fast, nil)
	res := pubsubResult{
		PayloadBytes:  payloadBytes,
		Subscribers:   subs,
		Publishes:     pub.Published(),
		FanoutSent:    pub.Sent(),
		FanoutDropped: pub.Dropped(),
		Throttled:     pub.Throttled(),
		Deferred:      pub.Deferred(),
		Replayed:      pub.Replayed(),
		Delivered:     delivered,
		RecvDropped:   recvDropped,
		PublishPerSec: float64(pub.Published()) / elapsed.Seconds(),
		FramesPerSec:  float64(pub.Sent()) / elapsed.Seconds(),
		Samples:       len(lat),
	}
	res.LatencyP50Us, res.LatencyP99Us = p50p99(lat)
	return res, nil
}
