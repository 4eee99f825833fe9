package registrystore

import (
	"testing"
	"time"

	"flipc/internal/core"
	"flipc/internal/interconnect"
	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

func newDomain(t *testing.T, fabric *interconnect.Fabric, node wire.NodeID) *core.Domain {
	t.Helper()
	tr, err := fabric.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(core.Config{Node: node, MessageSize: 256, NumBuffers: 512}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Start()
	return d
}

func TestApplyGapForcesResync(t *testing.T) {
	reg := nameservice.NewTopicRegistry()
	a := NewApply(nil, reg, nil)

	sub1, err := wire.MakeAddr(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(r Record) []byte {
		b, err := AppendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	feed := func(b []byte) {
		a.mu.Lock()
		a.feedLocked(b)
		a.mu.Unlock()
	}

	// In-sequence from genesis: applies.
	feed(framed(Record{Type: RecDeclare, Seq: 1, Topic: "t", Class: 1}))
	feed(framed(Record{Type: RecSubscribe, Seq: 2, Topic: "t", Addr: sub1}))
	if a.NeedResync() || a.Applied() != 2 {
		t.Fatalf("in-sequence stream: gap=%v applied=%d", a.NeedResync(), a.Applied())
	}
	// Sequence jump (a dropped stream message): gap, and no further
	// records apply until resync.
	feed(framed(Record{Type: RecAdvance, Seq: 5}))
	if !a.NeedResync() {
		t.Fatal("sequence gap not detected")
	}
	epochBefore := reg.Epoch()
	feed(framed(Record{Type: RecAdvance, Seq: 6}))
	if reg.Epoch() != epochBefore {
		t.Fatal("gapped replica kept applying")
	}
	// Resync clears the gap and resumes at the snapshot's sequence.
	src := nameservice.NewTopicRegistry()
	if err := src.Subscribe("t", sub1); err != nil {
		t.Fatal(err)
	}
	if err := a.Resync(src.ExportState(), 6); err != nil {
		t.Fatal(err)
	}
	if a.NeedResync() || a.LastSeq() != 6 {
		t.Fatalf("after resync: gap=%v lastSeq=%d", a.NeedResync(), a.LastSeq())
	}
	feed(framed(Record{Type: RecAdvance, Seq: 7}))
	if a.NeedResync() || reg.Epoch() == epochBefore {
		t.Fatal("post-resync record did not apply")
	}

	// A heartbeat whose sequence is ahead of ours is also a gap.
	feed(framed(Record{Type: RecHeartbeat, Seq: 9, Gen: 3}))
	if !a.NeedResync() {
		t.Fatal("heartbeat ahead of replica not detected as gap")
	}
	if a.PrimaryGen() != 3 {
		t.Fatalf("heartbeat generation not tracked: %d", a.PrimaryGen())
	}
}

// TestHeartbeatCarriesEnqueuedSeq pins the heartbeat's sequence to the
// feed's enqueue order: a mutation that has journaled sequence N but
// not yet enqueued record N (the store cursor runs ahead of the feed
// between Journal and Enqueue) must not be claimed by a heartbeat that
// reaches the standby first, or the standby reads N as a gap and
// resyncs spuriously.
func TestHeartbeatCarriesEnqueuedSeq(t *testing.T) {
	sub1, err := wire.MakeAddr(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFeed(nil, 512)
	rec := Record{Type: RecSubscribe, Seq: 5, Topic: "t", Addr: sub1}
	framed, err := AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	f.Enqueue(rec.Seq, framed)

	// Journal has already assigned sequence 6 elsewhere, but record 6 is
	// not enqueued yet: the heartbeat must carry 5, the feed's cursor.
	f.Heartbeat(3)
	f.mu.Lock()
	hbFramed := f.queue[len(f.queue)-1]
	f.mu.Unlock()
	hb, _, err := DecodeRecord(hbFramed)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Type != RecHeartbeat || hb.Seq != 5 || hb.Gen != 3 {
		t.Fatalf("heartbeat = %+v, want type heartbeat seq 5 gen 3", hb)
	}

	// A standby that has applied through 5 reads the heartbeat as
	// confirmation, not as a gap.
	a := NewApply(nil, nameservice.NewTopicRegistry(), nil)
	a.mu.Lock()
	a.lastSeq = 4
	a.feedLocked(framed)
	a.feedLocked(hbFramed)
	a.mu.Unlock()
	if a.NeedResync() {
		t.Fatal("in-order heartbeat read as a sequence gap")
	}
}

// TestRegistryFailoverSoak is the failover soak: a primary registry
// replicates to a standby over the reserved control-priority topic
// while a publisher fans traffic out to subscribers; the primary is
// killed mid-traffic, the standby fences itself strictly above and
// takes over, and the test asserts zero subscriptions were lost, no
// publisher ever blocked (sends stay error-free and accounted), and
// fanout conservation holds across the failover.
func TestRegistryFailoverSoak(t *testing.T) {
	fabric := interconnect.NewFabric(4096)
	primD := newDomain(t, fabric, 0)
	stbyD := newDomain(t, fabric, 1)
	workD := newDomain(t, fabric, 2)

	// Primary registry with a durable store.
	regA := nameservice.NewTopicRegistry()
	stA, err := Open(t.TempDir(), regA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	mgrA := NewManager(regA, stA)
	dirA := topic.LocalDirectory{R: regA}

	// Replication stream: publisher on the primary, subscriber on the
	// standby, both through the primary's own registry (dogfooding).
	repPub, err := topic.NewPublisher(primD, dirA, topic.PublisherConfig{
		Topic: ReplicationTopic, Class: ReplicationClass, RefreshEvery: 1, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	feed := NewFeed(repPub, primD.MaxPayload())
	mgrA.AttachFeed(feed)
	genA := mgrA.Promote()

	regB := nameservice.NewTopicRegistry()
	stB, err := Open(t.TempDir(), regB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	repSub, err := topic.NewSubscriber(stbyD, dirA, ReplicationTopic, ReplicationClass, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	apply := NewApply(repSub, regB, stB)
	// Bootstrap: full-state resync at the primary's pre-export sequence.
	seq := stA.Seq()
	if err := apply.Resync(regA.ExportState(), seq); err != nil {
		t.Fatal(err)
	}

	// Workload: subscribers and a publisher on "data", resolving through
	// a one-shard directory so the registry can be retargeted live.
	fdir := topic.NewShardedDirectory(shardmap.Restore(0, []shardmap.Entry{{ID: 0}}))
	fdir.SetShard(0, dirA)
	var subs []*topic.Subscriber
	for i := 0; i < 3; i++ {
		s, err := topic.NewSubscriber(workD, fdir, "data", topic.Normal, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	pub, err := topic.NewPublisher(workD, fdir, topic.PublisherConfig{
		Topic: "data", Class: topic.Normal, RefreshEvery: 8, Window: 256})
	if err != nil {
		t.Fatal(err)
	}

	pump := func() {
		if _, err := feed.Pump(); err != nil {
			t.Fatalf("feed pump: %v", err)
		}
		for apply.Drain() > 0 {
		}
		if apply.NeedResync() {
			seq := stA.Seq()
			if err := apply.Resync(regA.ExportState(), seq); err != nil {
				t.Fatal(err)
			}
		}
	}

	const phase = 1500
	published := 0
	publish := func(n int) {
		for i := 0; i < n; i++ {
			res, err := pub.Publish([]byte("tick"))
			if err != nil {
				t.Fatalf("publish %d: %v", published, err)
			}
			if res.Sent+res.Dropped != len(subs) {
				t.Fatalf("fanout accounted %d+%d, want %d", res.Sent, res.Dropped, len(subs))
			}
			published++
			for _, s := range subs {
				for {
					if _, _, ok := s.Receive(); !ok {
						break
					}
				}
			}
			if i%64 == 0 {
				mgrA.Heartbeat()
				pump()
			}
		}
	}
	publish(phase)
	pump()
	// Let the replication fanout settle before comparing states.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pump()
		if !apply.NeedResync() && apply.LastSeq() >= stA.Seq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: lastSeq=%d primary=%d", apply.LastSeq(), stA.Seq())
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the primary mid-traffic and fail over.
	before := regA.ExportState()
	regA.Observe(nil) // primary stops serving
	peerGen := apply.PrimaryGen()
	mgrB := NewManager(regB, stB)
	mgrB.ObservePeer(peerGen)
	genB := mgrB.Promote()
	if genB <= genA {
		t.Fatalf("standby fenced at %d, not above primary %d", genB, genA)
	}
	fdir.SetShard(0, topic.LocalDirectory{R: regB})
	if fdir.Epoch(0) != 1 {
		t.Fatalf("retarget epoch = %d", fdir.Epoch(0))
	}

	// Zero subscriptions lost: every (topic, subscriber) the primary
	// served must be present at the new primary.
	after := regB.ExportState()
	got := make(map[string]map[wire.Addr]bool)
	for _, ts := range after.Topics {
		set := make(map[wire.Addr]bool)
		for _, s := range ts.Subs {
			set[s.Addr] = true
		}
		got[ts.Name] = set
	}
	for _, ts := range before.Topics {
		for _, s := range ts.Subs {
			if !got[ts.Name][s.Addr] {
				t.Fatalf("failover lost subscription %v to %q", s.Addr, ts.Name)
			}
		}
	}
	// And every topic generation moved strictly above what was served.
	for _, ts := range before.Topics {
		if g := regB.Gen(ts.Name); g <= ts.Gen {
			t.Fatalf("topic %q gen %d not above served %d", ts.Name, g, ts.Gen)
		}
	}

	// Traffic continues against the new primary: the fence makes every
	// cached plan stale, so the publisher rebuilds and keeps fanning out
	// to the full subscriber set; renewals land at the new registry.
	if err := pub.Refresh(); err != nil {
		t.Fatal(err)
	}
	if pub.Subscribers() != len(subs) {
		t.Fatalf("post-failover plan has %d subscribers, want %d", pub.Subscribers(), len(subs))
	}
	for _, s := range subs {
		if err := s.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	publish(phase)

	// Conservation across the whole run: every per-subscriber frame was
	// delivered or counted at exactly one ledger.
	deadline = time.Now().Add(5 * time.Second)
	for {
		var delivered, recvDrops uint64
		for _, s := range subs {
			for {
				if _, _, ok := s.Receive(); !ok {
					break
				}
			}
			delivered += s.Received()
			recvDrops += s.Drops()
		}
		if delivered+recvDrops+pub.Dropped() == uint64(published*len(subs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation: %d delivered + %d recv drops + %d pub drops != %d",
				delivered, recvDrops, pub.Dropped(), published*len(subs))
		}
		time.Sleep(time.Millisecond)
	}
	if h := mgrB.Health(); h.Role != "primary" || h.RegistryGen != genB {
		t.Fatalf("new primary health = %+v", h)
	}
}
