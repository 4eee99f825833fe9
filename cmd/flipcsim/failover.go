package main

import (
	"fmt"

	"flipc/internal/registrystore"
	"flipc/internal/shardmap"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// runFailover kills the registry mid-traffic and measures the takeover.
//
// Node 0 hosts the primary registry (durable store + replication feed),
// node 1 the standby (store + stream apply), node 2 a control-class
// publisher, and every remaining node one subscriber — all resolving
// through a one-shard ShardedDirectory pointed at the primary. Phase
// one runs traffic against the primary while the standby follows the
// mutation stream. Then the primary is killed cold (observer detached,
// feed stopped, never notified), the standby promotes, and the
// workload is retargeted. The scenario enforces the failover contract:
//
//   - the standby's generation is strictly above anything the primary
//     served, and every topic generation moved (cached plans go stale);
//   - zero subscriptions are lost across the takeover — the standby's
//     membership is a superset of the primary's last served state, and
//     subscribers re-validate their leases against the new registry;
//   - no publisher ever blocks: every publish completes and is
//     accounted (delivered or counted drop) by the conservation law;
//   - post-failover control p99 stays within 2x the pre-failover
//     baseline.
func runFailover(o simOpts) error {
	k, err := newKit(o, simcluster.Config{NumBuffers: 4 * o.window})
	if err != nil {
		return err
	}
	defer k.Close()

	reg, err := k.newRegistryPair("flipcsim-reg-", registrystore.ReplicationTopic, 0, 1)
	if err != nil {
		return err
	}

	// Workload: subscribers on nodes 3..n-1 and a publisher on node 2,
	// all resolving through a failover directory so a takeover is one
	// retarget away. Subscriptions land after the standby attached, so
	// they flow down the stream.
	fdir := topic.NewShardedDirectory(shardmap.Restore(0, []shardmap.Entry{{ID: 0}}))
	fdir.SetShard(0, topic.LocalDirectory{R: reg.regP})
	var subs []*topicSub
	for n := 3; n < o.nodes; n++ {
		s, err := k.subscribe(n, fdir, "ctl", topic.Control)
		if err != nil {
			return err
		}
		subs = append(subs, s)
	}
	pub, err := topic.NewPublisher(k.Domains[2], fdir, topic.PublisherConfig{
		Topic: "ctl", Class: topic.Control, Window: o.window, RefreshEvery: 8,
	})
	if err != nil {
		return err
	}

	// Durable data topic: its single subscriber (stable cursor name)
	// dies with the primary registry, traffic continues into the log
	// during the blackout, and a replacement resuming under the same
	// name must recover every payload by replay — zero loss, exactly
	// once, with the cursor plane itself surviving the failover.
	dur, err := k.newDurable(fdir, "data", "sim/ledger", 2, 3)
	if err != nil {
		return err
	}
	if err := reg.resync(); err != nil {
		return err
	}
	k.houseKeep([]*registryPair{reg}, subs, dur)
	led := newLedger(k.Clock)
	k.drainEvery(led, subs)
	k.Clock.NewTicker(k.poll, dur.drain)
	traffic := func() { led.publish(pub, true); dur.publish() }
	settled := func() bool { return balanced(pub, subs) }

	// Phase one: traffic against the primary, ctl and durable data on
	// the same cadence.
	_, end := k.phase(traffic)
	k.settle(end, 500, settled)
	before, beforeErr := summarize(subs)

	// The durable stream must be fully delivered and fully acked —
	// cursor at head in the log and registered with the primary — before
	// the kill, so the replacement's resume point is exact and the
	// cursor record is in the replication stream the standby applies.
	if !k.waitFor(500, func() bool { return dur.settled(reg.regP) }) {
		return fmt.Errorf("durable stream never settled before the kill: %d/%d delivered", len(dur.seen), dur.published())
	}

	// Let the stream fully catch up, then kill the primary cold. The
	// catch-up target is captured once — renewals keep appending to the
	// log while the clock runs, and chasing a moving head would never
	// terminate.
	target := reg.stP.Seq()
	if !k.waitFor(500, func() bool { return reg.apply.LastSeq() >= target }) {
		return fmt.Errorf("standby never caught up: stream at %d, primary at %d", reg.apply.LastSeq(), target)
	}
	// The durable subscriber dies with the primary — a compound failure:
	// no unsubscribe, no farewell ack, the cursor's last registered
	// position is all that survives.
	deadDurAddr := dur.sub.Addr()
	dur.sub = nil
	served, genB := reg.promote()
	if genB <= reg.genP {
		return fmt.Errorf("standby generation %d not above dead primary's %d", genB, reg.genP)
	}
	fdir.SetShard(0, topic.LocalDirectory{R: reg.regS})
	if err := reg.checkServed(served.Topics); err != nil {
		return err
	}
	// Lease re-validation: every subscriber renews against the new
	// registry through the retargeted directory.
	for _, s := range subs {
		if err := s.sub.Renew(); err != nil {
			return fmt.Errorf("post-failover renew: %w", err)
		}
	}
	pub.Refresh()

	// Blackout tranche: data keeps publishing with its only subscriber
	// dead — kill-mid-traffic. Every payload lands in the journal alone;
	// the replacement owes all of them to the replay. The dead lease is
	// reaped the way the sweep would, so plans stop carrying it.
	if err := fdir.Unsubscribe("data", deadDurAddr); err != nil {
		return fmt.Errorf("reap dead durable lease: %w", err)
	}
	dur.pub.Evict(deadDurAddr)
	_, end = k.phase(dur.publish)
	k.Clock.RunUntil(end)

	// The replacement resumes under the same cursor name at a fresh
	// address, from the stored cursor.
	if dur.sub, err = topic.NewSubscriberDurable(k.Domains[3], fdir, "data", topic.Normal, o.window, o.window, dur.cursor); err != nil {
		return fmt.Errorf("durable replacement: %w", err)
	}
	if err := dur.pub.Refresh(); err != nil {
		return err
	}
	// Drain the blackout catch-up before the phase-two latency window:
	// the replay burst is deliberate Bulk-priority backlog, and letting
	// it overlap the measurement would charge the durable tranche to the
	// control-plane p99 bound.
	if !k.waitFor(500, func() bool { return len(dur.seen) == dur.published() }) {
		return fmt.Errorf("blackout catch-up stalled: %d/%d delivered", len(dur.seen), dur.published())
	}

	// Phase two: same traffic against the new primary, with the durable
	// stream back live.
	_, end = k.phase(traffic)
	k.settle(end, 500, settled)
	after, afterErr := summarize(subs)
	k.waitFor(500, func() bool { return dur.settled(reg.regS) })

	// Conservation across both phases: every publish completed without
	// blocking and is accounted for at one end or the other.
	l := fanoutLaw(pub, subs)
	fmt.Printf("flipcsim -failover: %d nodes, %d subscribers, poll %v, gap %v\n",
		o.nodes, len(subs), o.poll, o.gap)
	fmt.Printf("registry: primary gen %d killed after %d records; standby promoted at gen %d (epoch %d)\n",
		reg.genP, reg.stP.Seq(), genB, fdir.Epoch(0))
	fmt.Printf("ctl: published %d x %d subs = %d; delivered %d, recv-dropped %d, pub-dropped %d\n",
		l.published, l.subs, l.expect, l.delivered, l.recvDrops, l.pubDrops)
	if l.published != uint64(2*o.msgs) {
		return fmt.Errorf("publisher blocked: %d of %d publishes completed", l.published, 2*o.msgs)
	}
	if l.got != l.expect {
		return fmt.Errorf("conservation violated across failover: %d of %d accounted", l.got, l.expect)
	}
	fmt.Println("conservation: ok (zero subscriptions lost, no publisher blocked)")

	// The durable data-loss ledger: every payload published across the
	// kill — including the blackout tranche nobody was alive to hear —
	// was delivered exactly once, with replay doing the catching up.
	if err := dur.exactlyOnce(3 * o.msgs); err != nil {
		return err
	}
	if dur.pub.Replayed() == 0 || dur.sub.Replayed() == 0 {
		return fmt.Errorf("durable blackout never exercised replay (pub %d, sub %d)",
			dur.pub.Replayed(), dur.sub.Replayed())
	}
	rc, _ := reg.regS.CursorOf("data", dur.cursor)
	fmt.Printf("data (durable): published %d (1/3 with its subscriber dead); delivered %d distinct, %d by replay; deferred %d, stranded 0\n",
		dur.published(), len(dur.seen), dur.sub.Replayed(), dur.pub.Deferred())
	fmt.Printf("durable ledger: ok (zero payload loss across the kill; cursor %d at head on the new primary)\n", rc)

	if beforeErr != nil {
		return fmt.Errorf("pre-failover phase: %w", beforeErr)
	}
	if afterErr != nil {
		return fmt.Errorf("post-failover phase: %w", afterErr)
	}
	fmt.Printf("ctl one-way latency µs, pre-failover:  %v\n", before)
	fmt.Printf("ctl one-way latency µs, post-failover: %v\n", after)
	ratio := after.P99 / before.P99
	fmt.Printf("ctl p99 after failover: %.2fx pre-failover baseline\n", ratio)
	if ratio > 2 {
		return fmt.Errorf("control p99 degraded %.2fx across failover (bound: 2x)", ratio)
	}
	return nil
}
