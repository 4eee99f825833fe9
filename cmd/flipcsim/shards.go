package main

import (
	"fmt"

	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/shardmap"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// nShards is the scenario's shard count: three independent failover
// domains, one of which is killed mid-traffic.
const nShards = 3

// runShards is the sharded-registry failure-domain scenario: three
// registry shards partition the topic namespace (consistent-hash
// shard map), each with its own durable store, replication stream
// ("!registry/<k>") and standby. One control topic per shard carries
// tagged traffic; a durable data topic rides on shard 0. Mid-way
// through phase two, shard 1's primary is killed cold and its standby
// promotes. The scenario enforces the independence contract:
//
//   - the surviving shards never notice: their ctl p99 stays within
//     1.2x their own pre-kill baseline and their shard retarget
//     epochs never move;
//   - zero subscriptions are lost anywhere — the killed shard's
//     promoted standby serves a superset of the primary's last state
//     under a strictly higher generation, and the survivors' leases
//     are untouched;
//   - the durable cursor plane on a surviving shard is unperturbed:
//     every payload exactly once, cursor at head, nothing stranded;
//   - conservation is exact per shard: published x subscribers ==
//     delivered + receiver drops + publisher drops, with throttles
//     counted (zero on the uncredited control plane).
func runShards(o simOpts) error {
	k, err := newKit(o, simcluster.Config{NumBuffers: 16 * o.window})
	if err != nil {
		return err
	}
	defer k.Close()

	// The shard map: three equal shards. Topic ownership below is a
	// pure function of this map, exactly what servers and clients see.
	smap := shardmap.Restore(nShards, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}})

	// Per-shard registry pairs: primary on node s, standby on node 3+s,
	// each with its own WAL and its own reserved stream. The sharded
	// directory every workload participant resolves through keeps one
	// target per shard, so the kill retargets exactly one.
	var (
		pairs  []*registryPair
		labels []string
	)
	sdir := topic.NewShardedDirectory(smap)
	for s := 0; s < nShards; s++ {
		p, err := k.newRegistryPair(fmt.Sprintf("flipcsim-shard%d-", s),
			registrystore.ShardReplicationTopic(uint32(s)), s, 3+s)
		if err != nil {
			return err
		}
		pairs = append(pairs, p)
		labels = append(labels, fmt.Sprintf("shard %d", s))
	}
	for s, p := range pairs {
		sdir.SetShard(uint32(s), topic.LocalDirectory{R: p.regP})
	}

	// One control topic per shard, names found by searching the map
	// (routing is deterministic, so so are the names), plus a durable
	// data topic owned by shard 0 — a surviving shard, to prove the
	// cursor plane elsewhere never flinches.
	ctlTopic := map[uint32]string{}
	for i := 0; len(ctlTopic) < nShards; i++ {
		name := fmt.Sprintf("ctl-%d", i)
		id, ok := smap.ShardOf(name)
		if !ok {
			return fmt.Errorf("shard map refused to route")
		}
		if _, have := ctlTopic[id]; !have {
			ctlTopic[id] = name
		}
	}
	dataTopic := ""
	for i := 0; dataTopic == ""; i++ {
		name := fmt.Sprintf("data-%d", i)
		if id, _ := smap.ShardOf(name); id == 0 {
			dataTopic = name
		}
	}

	// Subscribers on nodes 7..n-1 join every shard's control topic;
	// the publisher node hosts one publisher per topic.
	var (
		subs    [nShards][]*topicSub
		allSubs []*topicSub
		pubs    [nShards]*topic.Publisher
		leds    [nShards]*ledger
	)
	for s := 0; s < nShards; s++ {
		for n := 7; n < o.nodes; n++ {
			sub, err := k.subscribe(n, sdir, ctlTopic[uint32(s)], topic.Control)
			if err != nil {
				return err
			}
			subs[s] = append(subs[s], sub)
		}
		allSubs = append(allSubs, subs[s]...)
	}
	for s := 0; s < nShards; s++ {
		if pubs[s], err = topic.NewPublisher(k.Domains[6], sdir, topic.PublisherConfig{
			Topic: ctlTopic[uint32(s)], Class: topic.Control, Window: o.window, RefreshEvery: 8,
		}); err != nil {
			return err
		}
	}
	dur, err := k.newDurable(sdir, dataTopic, "sim/shard-ledger", 6, 7)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if err := p.resync(); err != nil {
			return err
		}
	}

	// Tagged traffic per shard, one ledger each, plus the durable data
	// stream.
	k.houseKeep(pairs, allSubs, dur)
	for s := range leds {
		leds[s] = newLedger(k.Clock)
		k.drainEvery(leds[s], subs[s])
	}
	k.Clock.NewTicker(k.poll, dur.drain)
	traffic := func() {
		for s := range pubs {
			leds[s].publish(pubs[s], true)
		}
		dur.publish()
	}
	settled := func() bool {
		for s := range pubs {
			if !balanced(pubs[s], subs[s]) {
				return false
			}
		}
		return true
	}

	// Let the durable handshake land before traffic starts: history
	// published before the cursor is pinned is by design not replayed,
	// so the exactly-once ledger begins at a locked seam.
	if !k.waitFor(500, dur.sub.DurableLocked) {
		return fmt.Errorf("durable subscriber never locked its seam")
	}

	// Phase one: traffic on all shards, establishing each shard's own
	// latency baseline.
	_, end := k.phase(traffic)
	k.settle(end, 500, settled)
	before, err := summarizeEach(subs[:], labels, "baseline")
	if err != nil {
		return err
	}
	epochBefore := [nShards]uint64{}
	for s := range epochBefore {
		epochBefore[s] = sdir.Epoch(uint32(s))
	}

	// Phase two: same traffic, with shard 1's primary killed cold
	// mid-phase. The kill callback is the takeover: a best-effort final
	// pump and drain (anything still in flight dies with the primary,
	// which is the point), promotion strictly above the dead primary,
	// then exactly shard 1's directory retargeted and its leases
	// re-validated — the other shards are never touched.
	const victim = 1
	v := pairs[victim]
	var served nameservice.RegistryState
	var genB uint64
	start, end := k.phase(traffic)
	k.Clock.At(start+sim.Time(o.msgs/2)*k.gap+k.gap/2, func() {
		if _, err := v.feed.Pump(); err != nil {
			fatal(err)
		}
		v.apply.Drain()
		served, genB = v.promote()
		sdir.SetShard(victim, topic.LocalDirectory{R: v.regS})
		for _, s := range subs[victim] {
			if err := s.sub.Renew(); err != nil {
				fatal(err)
			}
		}
		if err := pubs[victim].Refresh(); err != nil {
			fatal(err)
		}
	})
	k.settle(end, 500, settled)
	after, err := summarizeEach(subs[:], labels, "phase two")
	if err != nil {
		return err
	}
	// Durable quiesce: every payload delivered, cursor at head on the
	// log and registered with shard 0's (never killed) registry.
	durDone := k.waitFor(500, func() bool { return dur.settled(pairs[0].regP) })

	fmt.Printf("flipcsim -shards: %d nodes, %d shards, %d subscribers/topic, poll %v, gap %v\n",
		o.nodes, nShards, len(subs[0]), o.poll, o.gap)
	fmt.Printf("shard map: epoch %d, topics %v, durable %q on shard 0\n",
		smap.Epoch(), ctlTopic, dataTopic)
	if genB <= v.genP {
		return fmt.Errorf("shard %d standby generation %d not above dead primary's %d", victim, genB, v.genP)
	}
	fmt.Printf("shard %d: primary gen %d killed at %d records; standby promoted at gen %d\n",
		victim, v.genP, v.stP.Seq(), genB)

	// Failure-domain isolation: only the victim's directory moved.
	for s := range epochBefore {
		got, want := sdir.Epoch(uint32(s)), epochBefore[s]
		if s == victim {
			want++
		}
		if got != want {
			return fmt.Errorf("shard %d directory epoch %d after the kill, want %d — failover leaked across shards", s, got, want)
		}
	}

	// Subscription conservation on the killed shard. Its own reserved
	// replication stream is excluded — its only subscriber was the
	// standby that just promoted, and sweeping that stale
	// self-subscription is teardown, not loss.
	var clientTopics []nameservice.TopicState
	for _, ts := range served.Topics {
		if len(ts.Name) == 0 || ts.Name[0] != '!' {
			clientTopics = append(clientTopics, ts)
		}
	}
	if err := v.checkServed(clientTopics); err != nil {
		return fmt.Errorf("shard %d: %w", victim, err)
	}

	// Conservation, exact per shard; throttles are a separate (zero,
	// uncredited) ledger printed for completeness.
	for s, p := range pubs {
		l := fanoutLaw(p, subs[s])
		fmt.Printf("shard %d ctl %q: published %d x %d = %d; delivered %d, recv-dropped %d, pub-dropped %d, throttled %d\n",
			s, ctlTopic[uint32(s)], l.published, l.subs, l.expect, l.delivered, l.recvDrops, l.pubDrops, p.Throttled())
		if l.published != uint64(2*o.msgs) {
			return fmt.Errorf("shard %d publisher blocked: %d of %d publishes completed", s, l.published, 2*o.msgs)
		}
		if l.got != l.expect {
			return fmt.Errorf("shard %d conservation violated: %d of %d accounted", s, l.got, l.expect)
		}
	}
	fmt.Println("conservation: ok on every shard (zero subscriptions lost, no publisher blocked)")

	// The durable ledger on surviving shard 0: exactly once, cursor at
	// head, nothing stranded — the kill next door never touched it.
	if !durDone {
		cur, curok := dur.log.Cursor(dur.cursor)
		rc, rok := pairs[0].regP.CursorOf(dataTopic, dur.cursor)
		ds, dp := dur.sub, dur.pub
		return fmt.Errorf("durable stream never quiesced: %d/%d delivered; head %d, log cursor %d (%v), registry cursor %d (%v); sub next %d acked %d replayed %d gapDrops %d seamDrops %d dupDrops %d resumes %d; pub replayed %d deferred %d stranded %d published %d dropped %d",
			len(dur.seen), dur.published(), dur.log.Head(), cur, curok, rc, rok,
			ds.NextSeq(), ds.AckedSeq(), ds.Replayed(), ds.GapDrops(), ds.SeamDrops(), ds.DupDrops(), ds.ResumesSent(),
			dp.Replayed(), dp.Deferred(), dp.ReplayStranded(), dp.Published(), dp.Dropped())
	}
	if err := dur.exactlyOnce(2 * o.msgs); err != nil {
		return err
	}
	rc, _ := pairs[0].regP.CursorOf(dataTopic, dur.cursor)
	fmt.Printf("durable ledger on shard 0: ok (%d payloads exactly once, cursor %d at head, stranded 0)\n",
		dur.published(), rc)

	if err := isolated(labels, before, after, victim, "failover"); err != nil {
		return err
	}
	fmt.Println("isolation: ok (surviving shards unperturbed by the kill)")
	return nil
}
