package main

import (
	"fmt"
	"os"
	"time"

	"flipc/internal/duralog"
	"flipc/internal/nameservice"
	"flipc/internal/registrystore"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/stats"
	"flipc/internal/topic"
)

// simOpts parameterizes every scenario; main fills it from the flags.
type simOpts struct {
	nodes      int
	msgSize    int
	msgs       int           // publishes per phase
	gap        time.Duration // publish period (virtual)
	poll       time.Duration // engine event-loop period (virtual)
	window     int           // subscriber inbox buffers and publisher window: 4 x -window
	bulkGap    time.Duration // -topics: bulk publish period in the contended phase
	batch      int           // -topics: mesh pending-buffer batch (0 = frame-at-a-time)
	flushDl    time.Duration // -topics: mesh flush deadline for corked runs (virtual)
	clients    int           // -gateway: clients per gateway
	slowFactor int           // -slowsub: slow subscriber drains one message per slowFactor*gap
}

// kit is one virtual-time cluster plus the machinery the scenarios
// share: phase scheduling, settle loops, tagged latency ledgers, the
// fanout conservation law, registry failover pairs and the durable
// exactly-once ledger.
type kit struct {
	*simcluster.Cluster
	o       simOpts
	poll    sim.Time
	gap     sim.Time
	step    sim.Time // one settle step: 1000 engine polls
	closers []func()
}

// newKit builds the cluster cfg describes; nodes (unless cfg sets
// them), message size and engine cadence come from o.
func newKit(o simOpts, cfg simcluster.Config) (*kit, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = o.nodes
	}
	poll := sim.Time(o.poll.Nanoseconds())
	cfg.MessageSize = o.msgSize
	cfg.PollInterval = poll
	c, err := simcluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &kit{Cluster: c, o: o, poll: poll, gap: sim.Time(o.gap.Nanoseconds()), step: 1000 * poll}, nil
}

// Close releases what the scenario opened, newest first, then the
// cluster.
func (k *kit) Close() {
	for i := len(k.closers) - 1; i >= 0; i-- {
		k.closers[i]()
	}
	k.Cluster.Close()
}

// tempDir makes a directory that Close removes.
func (k *kit) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp("", prefix)
	if err == nil {
		k.closers = append(k.closers, func() { os.RemoveAll(dir) })
	}
	return dir, err
}

// phase schedules fn once per gap, msgs times, from one gap after now.
// It returns the first instant and a deadline one settle step past the
// last.
func (k *kit) phase(fn func()) (start, end sim.Time) {
	start = k.Clock.Now() + k.gap
	for i := 0; i < k.o.msgs; i++ {
		k.Clock.At(start+sim.Time(i)*k.gap, fn)
	}
	return start, start + sim.Time(k.o.msgs)*k.gap + k.step
}

// waitFor runs the clock on in settle steps, at most limit of them,
// until cond holds, and reports whether it does.
func (k *kit) waitFor(limit int, cond func() bool) bool {
	for i := 0; i < limit && !cond(); i++ {
		k.Clock.RunUntil(k.Clock.Now() + k.step)
	}
	return cond()
}

// settle runs the clock to end, then waits for cond as waitFor does:
// in-flight backlogs drain at engine pace.
func (k *kit) settle(end sim.Time, limit int, cond func() bool) bool {
	k.Clock.RunUntil(end)
	return k.waitFor(limit, cond)
}

// ledger tags each publish with a 2-byte sequence number and resolves
// tagged deliveries back to their virtual publish instant.
type ledger struct {
	clock *sim.Clock
	sent  map[int]sim.Time // publish instant by tag, tracked publishes only
	next  int              // tags issued so far
}

func newLedger(clock *sim.Clock) *ledger {
	return &ledger{clock: clock, sent: map[int]sim.Time{}}
}

// publish sends the next tag on p; track records its send time for
// latency resolution.
func (l *ledger) publish(p *topic.Publisher, track bool) {
	tag := l.next
	l.next++
	if track {
		l.sent[tag] = l.clock.Now()
	}
	if _, err := p.Publish([]byte{byte(tag >> 8), byte(tag)}); err != nil {
		fatal(err)
	}
}

// resolve appends the latency of a tracked delivery to lat.
func (l *ledger) resolve(lat []sim.Time, payload []byte) []sim.Time {
	if len(payload) >= 2 {
		if t0, ok := l.sent[int(payload[0])<<8|int(payload[1])]; ok {
			lat = append(lat, l.clock.Now()-t0)
		}
	}
	return lat
}

// samples is one receiver's latency ledger: a sample per tracked
// delivery.
type samples struct{ lat []sim.Time }

func (s *samples) latencies() *samples { return s }

// summarize takes and resets the receivers' samples, pooled in receiver
// order, and summarizes them in microseconds.
func summarize[R interface{ latencies() *samples }](rs []R) (stats.Summary, error) {
	var us []float64
	for _, r := range rs {
		s := r.latencies()
		for _, l := range s.lat {
			us = append(us, l.Micros())
		}
		s.lat = nil
	}
	return stats.Summarize(us)
}

// summarizeEach summarizes every group's receivers; labels name the
// groups in errors.
func summarizeEach[R interface{ latencies() *samples }](groups [][]R, labels []string, phase string) ([]stats.Summary, error) {
	sums := make([]stats.Summary, len(groups))
	for g, rs := range groups {
		sum, err := summarize(rs)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", labels[g], phase, err)
		}
		sums[g] = sum
	}
	return sums, nil
}

// isolated checks the independence bound of a kill scenario: every
// survivor's ctl p99 within 1.2x its own baseline. The victim is
// reported but unbounded — its blackout window is the failover, not a
// regression.
func isolated(labels []string, before, after []stats.Summary, victim int, kill string) error {
	for g := range labels {
		ratio := after[g].P99 / before[g].P99
		verdict := ""
		if g == victim {
			verdict = " (killed mid-phase; unbounded)"
		}
		fmt.Printf("%s ctl p99: %.2fµs -> %.2fµs (%.2fx)%s\n",
			labels[g], before[g].P99, after[g].P99, ratio, verdict)
		if g != victim && ratio > 1.2 {
			return fmt.Errorf("surviving %s p99 degraded %.2fx across a foreign %s (bound: 1.2x)", labels[g], ratio, kill)
		}
	}
	return nil
}

// topicSub is one subscriber plus its latency ledger.
type topicSub struct {
	sub *topic.Subscriber
	samples
}

func (k *kit) subscribe(node int, dir topic.Directory, name string, class topic.Class) (*topicSub, error) {
	s, err := topic.NewSubscriber(k.Domains[node], dir, name, class, k.o.window, k.o.window)
	return &topicSub{sub: s}, err
}

// receive takes one delivery, resolving its latency against l (nil
// discards it), and reports whether there was one.
func (s *topicSub) receive(l *ledger) bool {
	payload, _, ok := s.sub.Receive()
	if ok && l != nil {
		s.lat = l.resolve(s.lat, payload)
	}
	return ok
}

// drainEvery starts one ticker per subscriber that takes every pending
// delivery each poll.
func (k *kit) drainEvery(l *ledger, subs []*topicSub) {
	for _, s := range subs {
		k.Clock.NewTicker(k.poll, func() {
			for s.receive(l) {
			}
		})
	}
}

// fanout sums the subscriber side of the fanout conservation law:
// deliveries plus application-frame drops. AppDrops, not Drops: the
// endpoint's discards of control frames (hellos, credit adverts) are
// outside the publisher's ledgers.
func fanout(subs ...*topicSub) (delivered, dropped uint64) {
	for _, s := range subs {
		delivered += s.sub.Received()
		dropped += s.sub.AppDrops()
	}
	return delivered, dropped
}

// law is one topic's fanout conservation ledger: published x
// subscribers must equal delivered + receiver drops + publisher drops.
type law struct {
	published, subs, delivered, recvDrops, pubDrops uint64
	expect, got                                     uint64
}

func fanoutLaw(p *topic.Publisher, subs []*topicSub) law {
	l := law{published: p.Published(), subs: uint64(len(subs)), pubDrops: p.Dropped()}
	l.delivered, l.recvDrops = fanout(subs...)
	l.expect = l.published * l.subs
	l.got = l.delivered + l.recvDrops + l.pubDrops
	return l
}

func balanced(p *topic.Publisher, subs []*topicSub) bool {
	l := fanoutLaw(p, subs)
	return l.got == l.expect
}

// registryPair is one registry failover domain: a primary with a
// durable store and a replication feed on its reserved stream, fenced
// at promotion, and a standby that subscribes to the stream through the
// primary and applies it into its own registry and store.
type registryPair struct {
	regP, regS *nameservice.TopicRegistry
	stP        *registrystore.Store
	mgrP, mgrS *registrystore.Manager
	feed       *registrystore.Feed
	apply      *registrystore.Apply
	genP       uint64 // the primary's generation
	alive      bool   // the primary still serves
}

func (k *kit) newRegistryPair(walPrefix, stream string, primary, standby int) (*registryPair, error) {
	walP, err := k.tempDir(walPrefix + "p-")
	if err != nil {
		return nil, err
	}
	walS, err := k.tempDir(walPrefix + "s-")
	if err != nil {
		return nil, err
	}
	p := &registryPair{regP: nameservice.NewTopicRegistry(), regS: nameservice.NewTopicRegistry(), alive: true}
	if p.stP, err = registrystore.Open(walP, p.regP, registrystore.Options{NoSync: true}); err != nil {
		return nil, err
	}
	p.mgrP = registrystore.NewManager(p.regP, p.stP)
	dirP := topic.LocalDirectory{R: p.regP}
	repPub, err := topic.NewPublisher(k.Domains[primary], dirP, topic.PublisherConfig{
		Topic: stream, Class: registrystore.ReplicationClass,
		Window: k.o.window, RefreshEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	p.feed = registrystore.NewFeed(repPub, k.Domains[primary].MaxPayload())
	p.mgrP.AttachFeed(p.feed)
	p.genP = p.mgrP.Promote()

	stS, err := registrystore.Open(walS, p.regS, registrystore.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	p.mgrS = registrystore.NewManager(p.regS, stS)
	repSub, err := topic.NewSubscriber(k.Domains[standby], dirP, stream,
		registrystore.ReplicationClass, k.o.window, k.o.window)
	if err != nil {
		return nil, err
	}
	p.apply = registrystore.NewApply(repSub, p.regS, stS)
	return p, nil
}

// resync bootstraps the standby with a full-state resync (records
// enqueued before it subscribed never reach it): the sequence is
// captured before the export, so the stream overlap double-applies
// idempotently instead of gapping.
func (p *registryPair) resync() error {
	seq := p.stP.Seq()
	return p.apply.Resync(p.regP.ExportState(), seq)
}

// promote kills the primary cold — observer detached, feed no longer
// pumped, nobody notified — and promotes the standby, fenced above the
// last primary generation the stream carried. It returns the state the
// primary last served and the standby's generation.
func (p *registryPair) promote() (nameservice.RegistryState, uint64) {
	served := p.regP.ExportState()
	p.regP.Observe(nil)
	p.alive = false
	p.mgrS.ObservePeer(p.apply.PrimaryGen())
	return served, p.mgrS.Promote()
}

// checkServed is subscription conservation across the takeover: every
// topic the dead primary served exists on the promoted standby with a
// superset of its subscribers, under a strictly larger generation so
// cached plans go stale.
func (p *registryPair) checkServed(served []nameservice.TopicState) error {
	for _, ts := range served {
		snap, ok := p.regS.Snapshot(ts.Name)
		if !ok {
			return fmt.Errorf("topic %q lost in failover", ts.Name)
		}
		if snap.Gen <= ts.Gen {
			return fmt.Errorf("topic %q generation %d not above served %d — stale plans would survive",
				ts.Name, snap.Gen, ts.Gen)
		}
		have := map[uint32]bool{}
		for _, sub := range snap.Subs {
			have[uint32(sub.Addr)] = true
		}
		for _, sub := range ts.Subs {
			if !have[uint32(sub.Addr)] {
				return fmt.Errorf("topic %q lost subscriber %v in failover", ts.Name, sub.Addr)
			}
		}
	}
	return nil
}

// houseKeep starts the registry scenarios' housekeeping on the virtual
// clock. Every 50 polls: the durable replay pump, then each live
// primary's heartbeat and feed pump and its standby's stream drain.
// Every 200 polls: every subscriber's lease renewal, the durable
// subscriber's, then each live standby's stream lease. Every 1000
// polls: a sweep epoch on each pair's serving registry, slow enough
// that a renewing subscriber can never expire.
func (k *kit) houseKeep(pairs []*registryPair, subs []*topicSub, d *durable) {
	k.Clock.NewTicker(50*k.poll, func() {
		d.pub.PumpReplay(0)
		for i, p := range pairs {
			if !p.alive {
				continue
			}
			p.mgrP.Heartbeat()
			if _, err := p.feed.Pump(); err != nil {
				fatal(err)
			}
			p.apply.Drain()
			if p.apply.NeedResync() {
				fatal(fmt.Errorf("registry %d standby gapped during steady state", i))
			}
		}
	})
	k.Clock.NewTicker(200*k.poll, func() {
		for _, s := range subs {
			if err := s.sub.Renew(); err != nil {
				fatal(err)
			}
		}
		if d.sub != nil {
			if err := d.sub.Renew(); err != nil {
				fatal(err)
			}
		}
		for _, p := range pairs {
			if p.alive {
				if err := p.apply.Renew(); err != nil {
					fatal(err)
				}
			}
		}
	})
	k.Clock.NewTicker(1000*k.poll, func() {
		for _, p := range pairs {
			if p.alive {
				p.regP.Advance()
			} else {
				p.regS.Advance()
			}
		}
	})
}

// durable is the payload-loss ledger on a durable data topic: a
// journaling publisher, one subscriber under a stable cursor name, and
// per-tag delivery counts across every subscriber incarnation.
type durable struct {
	tags   *ledger // issues the payload tags; tags.next counts publishes
	log    *duralog.Log
	pub    *topic.Publisher
	sub    *topic.Subscriber // the current incarnation; nil while dead
	topic  string
	cursor string
	seen   map[int]int
}

func (k *kit) newDurable(dir topic.Directory, name, cursor string, pubNode, subNode int) (*durable, error) {
	logDir, err := k.tempDir("flipcsim-duralog-")
	if err != nil {
		return nil, err
	}
	d := &durable{tags: newLedger(k.Clock), topic: name, cursor: cursor, seen: map[int]int{}}
	if d.log, err = duralog.Open(logDir, duralog.Options{NoSync: true}); err != nil {
		return nil, err
	}
	k.closers = append(k.closers, func() { d.log.Close() })
	if d.sub, err = topic.NewSubscriberDurable(k.Domains[subNode], dir, name, topic.Normal,
		k.o.window, k.o.window, cursor); err != nil {
		return nil, err
	}
	d.pub, err = topic.NewPublisher(k.Domains[pubNode], dir, topic.PublisherConfig{
		Topic: name, Class: topic.Normal, Window: k.o.window, RefreshEvery: 8,
		Log: d.log, CreditBuffers: 8,
	})
	return d, err
}

func (d *durable) publish()       { d.tags.publish(d.pub, false) }
func (d *durable) published() int { return d.tags.next }

// drain counts every pending delivery of the live incarnation.
func (d *durable) drain() {
	if d.sub == nil {
		return
	}
	for {
		payload, _, ok := d.sub.Receive()
		if !ok {
			return
		}
		if len(payload) >= 2 {
			d.seen[int(payload[0])<<8|int(payload[1])]++
		}
	}
}

// settled reports whether every payload was delivered and the cursor
// sits at the log head, in the log and as registered with reg.
func (d *durable) settled(reg *nameservice.TopicRegistry) bool {
	if len(d.seen) != d.published() {
		return false
	}
	cur, ok := d.log.Cursor(d.cursor)
	if !ok || cur != d.log.Head() {
		return false
	}
	rc, rok := reg.CursorOf(d.topic, d.cursor)
	return rok && rc == cur
}

// exactlyOnce checks the journal holds want payloads, each delivered
// exactly once, and that the only admissible loss class — retention
// stranding — is empty.
func (d *durable) exactlyOnce(want int) error {
	if d.published() != want || d.log.Head() != uint64(d.published()) {
		return fmt.Errorf("durable journal short: %d published, head %d", d.published(), d.log.Head())
	}
	for tag := 0; tag < d.published(); tag++ {
		if n := d.seen[tag]; n != 1 {
			return fmt.Errorf("durable payload %d delivered %d times (zero-loss ledger violated)", tag, n)
		}
	}
	if d.pub.ReplayStranded() != 0 {
		return fmt.Errorf("durable stranded %d frames on an unbreached log", d.pub.ReplayStranded())
	}
	return nil
}
