package main

import (
	"fmt"

	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// runTopics runs the prioritized pub/sub scenario on the virtual-time
// cluster: subscribers on every node but 0 join a control topic and a
// bulk topic; node 0 publishes on both. Phase one measures the control
// topic solo; phase two saturates the bulk topic and measures the
// control topic again. The engine's priority policy plus a quantum
// reservation must keep the contended control p99 near the solo
// baseline, and the fanout ledgers must conserve every message.
func runTopics(o simOpts) error {
	if o.nodes < 2 {
		return fmt.Errorf("-topics needs at least 2 nodes")
	}
	mesh := interconnect.DefaultMeshConfig()
	if o.batch > 0 {
		// Pending-buffer aggregation on the simulated wire: bulk runs
		// cork and pay one route setup, control frames bypass, and the
		// deadline bounds how long a corked frame can age. The ctl-p99
		// assertion below must hold unchanged — that is the point.
		mesh.BatchFrames = o.batch
		mesh.FlushDeadline = sim.Time(o.flushDl.Nanoseconds())
	}
	k, err := newKit(o, simcluster.Config{
		Mesh:       mesh,
		NumBuffers: 4 * o.window,
		// A tight send quantum with a control-class reservation makes the
		// engine — not the wire — the choke point when bulk overloads:
		// bulk is capped below its offered rate, its backlog hits the
		// publisher window, and the excess becomes counted optimistic
		// drops while the reserved slots keep control latency flat.
		Engine: engine.Config{
			Policy:          engine.PolicyPriority,
			SendQuantum:     3,
			ReservedQuantum: 2,
			ReservePriority: 1,
		},
	})
	if err != nil {
		return err
	}
	defer k.Close()

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	var ctlSubs, bulkSubs []*topicSub
	for n := 1; n < o.nodes; n++ {
		cs, err := k.subscribe(n, dir, "ctl", topic.Control)
		if err != nil {
			return err
		}
		bs, err := k.subscribe(n, dir, "bulk", topic.Bulk)
		if err != nil {
			return err
		}
		ctlSubs = append(ctlSubs, cs)
		bulkSubs = append(bulkSubs, bs)
	}
	ctlPub, err := topic.NewPublisher(k.Domains[0], dir, topic.PublisherConfig{
		Topic: "ctl", Class: topic.Control, Window: o.window})
	if err != nil {
		return err
	}
	bulkPub, err := topic.NewPublisher(k.Domains[0], dir, topic.PublisherConfig{
		Topic: "bulk", Class: topic.Bulk, Window: o.window})
	if err != nil {
		return err
	}

	// Only control publishes are timed; bulk shares the tag sequence.
	led := newLedger(k.Clock)
	k.drainEvery(led, ctlSubs)
	k.drainEvery(nil, bulkSubs)
	publishCtl := func() { led.publish(ctlPub, true) }
	settled := func() bool { return balanced(ctlPub, ctlSubs) && balanced(bulkPub, bulkSubs) }

	// Phase one: control topic alone.
	_, end := k.phase(publishCtl)
	k.settle(end, 500, settled)
	solo, soloErr := summarize(ctlSubs)

	// Phase two: bulk saturation alongside the same control cadence.
	start, end := k.phase(publishCtl)
	bulkGap := sim.Time(o.bulkGap.Nanoseconds())
	bulkMsgs := int(sim.Time(o.msgs) * k.gap / bulkGap)
	for i := 0; i < bulkMsgs; i++ {
		k.Clock.At(start+sim.Time(i)*bulkGap, func() { led.publish(bulkPub, false) })
	}
	k.settle(end, 500, settled)
	contended, contErr := summarize(ctlSubs)

	// Conservation: each topic's ledgers must account for exactly
	// published × subscribers messages, with no silent loss.
	fmt.Printf("flipcsim -topics: %d nodes, %d subscribers/topic, poll %v, ctl gap %v, bulk gap %v\n",
		o.nodes, len(ctlSubs), o.poll, o.gap, o.bulkGap)
	ctl, bulk := fanoutLaw(ctlPub, ctlSubs), fanoutLaw(bulkPub, bulkSubs)
	for _, t := range []struct {
		name string
		l    law
	}{{"ctl", ctl}, {"bulk", bulk}} {
		fmt.Printf("topic %-4s: published %d x %d subs = %d; delivered %d, recv-dropped %d, pub-dropped %d\n",
			t.name, t.l.published, t.l.subs, t.l.expect, t.l.delivered, t.l.recvDrops, t.l.pubDrops)
	}
	if ctl.got != ctl.expect || bulk.got != bulk.expect {
		return fmt.Errorf("conservation violated: ctl %d/%d, bulk %d/%d accounted", ctl.got, ctl.expect, bulk.got, bulk.expect)
	}
	fmt.Println("conservation: ok (delivered + counted drops == published x subscribers)")

	if soloErr != nil {
		return fmt.Errorf("solo phase: %w", soloErr)
	}
	if contErr != nil {
		return fmt.Errorf("contended phase: %w", contErr)
	}
	fmt.Printf("ctl one-way latency µs, solo:      %v\n", solo)
	fmt.Printf("ctl one-way latency µs, contended: %v\n", contended)
	ratio := contended.P99 / solo.P99
	fmt.Printf("ctl p99 under bulk saturation: %.2fx solo baseline\n", ratio)
	if ratio > 2 {
		return fmt.Errorf("control p99 degraded %.2fx under bulk load (bound: 2x)", ratio)
	}
	return nil
}
