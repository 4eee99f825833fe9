package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

// fanout_mixed runs two kinds of pass, each on its own set-up: every
// third pass, starting with the first, is saturated and the others are
// light. Both publish a Control topic with one subscriber ctlRate times a
// second beside a Bulk topic with bulkSubs subscribers; they differ in
// the Bulk rate.
//
// A saturated pass offers bulkRate publishes a second, above what one
// loopback connection carries on a small machine, so per-frame cost
// sets the goodput: these passes give msgs_per_s and cpu_us_per_msg.
// The Bulk subscribers return receive credit, so Bulk beyond capacity
// is shed at the publisher (throttled, or dropped at its outbox)
// rather than overrunning the receiving transport's inbox, which is
// blind to class and would lose Control frames with it.
//
// A light pass offers bulkLightRate, well below the knee, and gives
// the latency metric: Control one-way latency beside Bulk, timed from
// each publish's due time. Above the knee that latency moves by a
// fifth to a quarter between runs of the same code, as the point where
// the queue builds moves with the scheduler; it is still printed, as
// ctl_saturated_p50_us and ctl_saturated_p99_us.
const (
	bulkSubs      = 8
	satEvery      = 3 // one pass in satEvery is saturated
	bulkRate      = 20000
	bulkLightRate = 5000
	ctlRate       = 2000
	// ctlDepth sizes the Control publisher's window and the Control
	// subscriber's inbox: 128 ms of Control traffic, so a stalled
	// engine or receiver delays Control frames but does not drop them.
	ctlDepth = 256
	// drainWait bounds the drain after the schedule ends: every frame
	// still in flight must be delivered or counted dropped by then.
	drainWait = 10 * time.Second
)

// Frame kinds, carried in payload byte 4.
const (
	kindBulk  = 0
	kindCtl   = 1
	kindProbe = 2 // set-up probe
	kindTick  = 3 // drain wake-up, published after the schedule
)

// payloadTable holds the seeded inputs: frame sizes and payload bytes.
// Frame seq of any kind has size sizes[seq%len] and carries
// bytes[(seq+i)%len] at offset i >= 8, so the receiver can check every
// frame without the sender's copy.
type payloadTable struct {
	sizes [4096]uint8
	bytes [4096]byte
}

func newPayloadTable(seed int64) *payloadTable {
	rng := rand.New(rand.NewSource(seed))
	t := &payloadTable{}
	for i := range t.sizes {
		t.sizes[i] = uint8(8 + rng.Intn(msgSize-8-8+1))
	}
	rng.Read(t.bytes[:])
	return t
}

// fill writes frame seq of kind into buf and returns its length.
func (t *payloadTable) fill(buf []byte, kind byte, seq uint32) int {
	n := int(t.sizes[seq%uint32(len(t.sizes))])
	binary.BigEndian.PutUint32(buf[0:4], seq)
	buf[4] = kind
	buf[5], buf[6], buf[7] = 0, 0, 0
	for i := 8; i < n; i++ {
		buf[i] = t.bytes[(seq+uint32(i))%uint32(len(t.bytes))]
	}
	return n
}

// check verifies a received frame against the table and returns its
// kind and sequence number.
func (t *payloadTable) check(p []byte) (kind byte, seq uint32, ok bool) {
	if len(p) < 8 {
		return 0, 0, false
	}
	seq = binary.BigEndian.Uint32(p[0:4])
	kind = p[4]
	if len(p) != int(t.sizes[seq%uint32(len(t.sizes))]) {
		return kind, seq, false
	}
	for i := 8; i < len(p); i++ {
		if p[i] != t.bytes[(seq+uint32(i))%uint32(len(t.bytes))] {
			return kind, seq, false
		}
	}
	return kind, seq, true
}

// fanoutRig is one set-up of fanout_mixed: a publisher domain and a
// subscriber domain in this process, joined by one TCP connection.
type fanoutRig struct {
	pubTr, subTr    *nettrans.Transport
	pubTw, subTw    *timedTransport // nil untraced
	pubD, subD      *core.Domain
	pubReg, subReg  *metrics.Registry // nil untraced
	bulk            []*topic.Subscriber
	ctl             *topic.Subscriber
	bulkPub, ctlPub *topic.Publisher
	probes          uint32
}

func newFanoutRig(traced bool, tc *tracer) (*fanoutRig, error) {
	r := &fanoutRig{}
	var err error
	mk := func(node wire.NodeID) (*nettrans.Transport, error) {
		return nettrans.ListenConfig(nettrans.Config{Node: node, Addr: "127.0.0.1:0", MessageSize: msgSize, BatchWrites: true})
	}
	if r.pubTr, err = mk(1); err != nil {
		return nil, err
	}
	if r.subTr, err = mk(2); err != nil {
		r.close()
		return nil, err
	}
	if err := r.pubTr.Dial(2, r.subTr.Addr()); err != nil {
		r.close()
		return nil, err
	}
	domain := func(node wire.NodeID, tr *nettrans.Transport) (*core.Domain, *timedTransport, *metrics.Registry, error) {
		var it interconnect.Transport = tr
		var tw *timedTransport
		ecfg := engine.Config{}
		var reg *metrics.Registry
		if traced {
			reg = metrics.NewRegistry()
			ecfg.Metrics = reg
			it, tw = wrapTransport(tr, tc, "nettrans")
		}
		d, err := core.NewDomain(core.Config{Node: node, MessageSize: msgSize,
			NumBuffers: 2048, MaxEndpoints: 64, DefaultQueueDepth: 64, Engine: ecfg}, it)
		if err != nil {
			return nil, nil, nil, err
		}
		d.Start()
		return d, tw, reg, nil
	}
	if r.pubD, r.pubTw, r.pubReg, err = domain(1, r.pubTr); err != nil {
		r.close()
		return nil, err
	}
	if r.subD, r.subTw, r.subReg, err = domain(2, r.subTr); err != nil {
		r.close()
		return nil, err
	}
	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	for i := 0; i < bulkSubs; i++ {
		s, err := topic.NewSubscriberCredit(r.subD, dir, "bench.bulk", topic.Bulk, 64, 64, topic.CreditConfig{})
		if err != nil {
			r.close()
			return nil, err
		}
		r.bulk = append(r.bulk, s)
	}
	if r.ctl, err = topic.NewSubscriber(r.subD, dir, "bench.ctl", topic.Control, ctlDepth, ctlDepth); err != nil {
		r.close()
		return nil, err
	}
	if r.bulkPub, err = topic.NewPublisher(r.pubD, dir, topic.PublisherConfig{
		Topic: "bench.bulk", Class: topic.Bulk, Depth: 64, Window: max(topic.PublisherWindow(bulkSubs, 4), 64),
		// CreditStall forgives an account after this many throttled
		// publishes with no credit returned, so a lost credit frame
		// cannot starve a subscriber for the rest of the pass.
		Credit: true, CreditStall: 1024}); err != nil {
		r.close()
		return nil, err
	}
	if r.ctlPub, err = topic.NewPublisher(r.pubD, dir, topic.PublisherConfig{
		Topic: "bench.ctl", Class: topic.Control, Depth: ctlDepth, Window: ctlDepth}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// probe publishes one frame on each topic and waits for it at every
// subscriber.
func (r *fanoutRig) probe(tab *payloadTable) error {
	var buf [msgSize]byte
	n := tab.fill(buf[:], kindProbe, 0)
	r.probes++
	if _, err := r.bulkPub.Publish(buf[:n]); err != nil {
		return err
	}
	if _, err := r.ctlPub.Publish(buf[:n]); err != nil {
		return err
	}
	for _, s := range append(append([]*topic.Subscriber(nil), r.bulk...), r.ctl) {
		p, _, err := s.ReceiveBlock()
		if err != nil {
			return err
		}
		if k, _, ok := tab.check(p); !ok || k != kindProbe {
			return fmt.Errorf("probe arrived damaged")
		}
	}
	// The probe's hello handshake has left each Bulk subscriber's first
	// credit advertisement on its way back; a pass starts once all have
	// arrived, so no pass begins uncredited.
	for t0 := time.Now(); r.bulkPub.CreditAdverts() < bulkSubs; time.Sleep(100 * time.Microsecond) {
		if time.Since(t0) > time.Second {
			return fmt.Errorf("credit handshake: %d of %d bulk subscribers advertised", r.bulkPub.CreditAdverts(), bulkSubs)
		}
	}
	return nil
}

func (r *fanoutRig) close() {
	if r.pubD != nil {
		r.pubD.Close()
	}
	if r.subD != nil {
		r.subD.Close()
	}
	if r.pubTr != nil {
		r.pubTr.Close()
	}
	if r.subTr != nil {
		r.subTr.Close()
	}
}

// fanoutLedger is the fanout conservation law's terms, summed over both
// topics: published x subscribers == delivered + pub-dropped +
// recv-dropped + throttled + rx-drops + flush-lost, once nothing is in
// flight.
type fanoutLedger struct {
	offered, delivered, pubDropped, recvDropped, throttled, rxDrops, flushLost uint64
}

// ledger reads the terms. Published is read last: every frame
// accounted for was published first, so a publish racing the read can
// leave the ledger open but never make it overflow.
func (r *fanoutRig) ledger() fanoutLedger {
	var l fanoutLedger
	for _, s := range append(append([]*topic.Subscriber(nil), r.bulk...), r.ctl) {
		l.delivered += s.Received()
		l.recvDropped += s.AppDrops()
	}
	l.pubDropped = r.bulkPub.Dropped() + r.ctlPub.Dropped()
	l.throttled = r.bulkPub.Throttled() + r.ctlPub.Throttled()
	ps, ss := r.pubTr.Stats(), r.subTr.Stats()
	l.rxDrops = ps.RxDrops + ss.RxDrops
	l.flushLost = ps.FlushLost + ss.FlushLost
	l.offered = r.bulkPub.Published()*bulkSubs + r.ctlPub.Published()
	return l
}

func (l fanoutLedger) accounted() uint64 {
	return l.delivered + l.pubDropped + l.recvDropped + l.throttled + l.rxDrops + l.flushLost
}

func (l fanoutLedger) String() string {
	return fmt.Sprintf("published x subscribers %d; delivered %d + pub-dropped %d + recv-dropped %d + throttled %d + rx-drops %d + flush-lost %d = %d",
		l.offered, l.delivered, l.pubDropped, l.recvDropped, l.throttled, l.rxDrops, l.flushLost, l.accounted())
}

// schedule is the open-loop timetable: bulk publish k is due at
// start + k*bulkGap, control publish j at start + j*ctlGap + jitter,
// where the jitter is a seeded offset below ctlGap. The jitter spreads
// the control frames over every position in the bulk cycle within one
// pass, so a pass does not draw one lucky or unlucky phase for all of
// them.
type schedule struct {
	start           int64 // ns since epoch
	bulkGap, ctlGap int64
	ctlJitter       []int64 // per control publish, cycled; each in [0, ctlGap)
	epoch           time.Time
}

func (s *schedule) bulkDue(k uint32) int64 { return s.start + int64(k)*s.bulkGap }
func (s *schedule) ctlDue(j uint32) int64 {
	d := s.start + int64(j)*s.ctlGap
	if n := uint32(len(s.ctlJitter)); n > 0 {
		d += s.ctlJitter[j%n]
	}
	return d
}
func (s *schedule) now() int64 { return int64(time.Since(s.epoch)) }

// fanoutReceiver drains every subscriber from one goroutine. It waits
// only in Subscriber.ReceiveBlock, on the subscriber whose next frame
// is due first by the schedule.
type fanoutReceiver struct {
	r     *fanoutRig
	tab   *payloadTable
	sched *schedule

	bulkLat *samples
	ctlLat  *samples
	waits   *samples // traced: time blocked in ReceiveBlock
	tc      *tracer

	bulkNext, ctlNext uint32      // one past the highest sequence seen
	ctlGot            uint64      // control frames received
	ctlSeen           []bool      // per control seq: received (duplicates are violations)
	ticks             uint32      // drain ticks published
	final             atomic.Bool // the receiver has taken over its wake-ups
	bad               []string
}

func (x *fanoutReceiver) handle(p []byte, isCtl bool) {
	now := x.sched.now()
	kind, seq, ok := x.tab.check(p)
	if !ok {
		x.bad = append(x.bad, fmt.Sprintf("damaged frame (kind %d seq %d, %d bytes)", kind, seq, len(p)))
		return
	}
	switch {
	case kind == kindBulk && !isCtl:
		x.bulkLat.add(now - x.sched.bulkDue(seq))
		if seq+1 > x.bulkNext {
			x.bulkNext = seq + 1
		}
	case kind == kindCtl && isCtl:
		if int(seq) >= len(x.ctlSeen) || x.ctlSeen[seq] {
			x.bad = append(x.bad, fmt.Sprintf("control seq %d duplicated or never published", seq))
			return
		}
		x.ctlSeen[seq] = true
		x.ctlGot++
		x.ctlLat.add(now - x.sched.ctlDue(seq))
		if seq+1 > x.ctlNext {
			x.ctlNext = seq + 1
		}
	case kind == kindTick:
	default:
		x.bad = append(x.bad, fmt.Sprintf("frame kind %d on the wrong topic", kind))
	}
}

// sweep takes everything waiting on every subscriber and reports
// whether anything arrived. The control inbox is checked before each
// bulk inbox, so a control frame waits on the harness for at most one
// bulk inbox's worth of frames.
func (x *fanoutReceiver) sweep() bool {
	got := x.drain(x.r.ctl, true)
	for _, s := range x.r.bulk {
		got = x.drain(s, false) || got
		got = x.drain(x.r.ctl, true) || got
	}
	return got
}

func (x *fanoutReceiver) drain(s *topic.Subscriber, isCtl bool) bool {
	got := false
	for {
		p, _, ok := s.Receive()
		if !ok {
			return got
		}
		x.handle(p, isCtl)
		got = true
	}
}

// block waits in ReceiveBlock on s and handles what it returns.
func (x *fanoutReceiver) block(s *topic.Subscriber, isCtl bool) error {
	t0 := time.Now()
	p, _, err := s.ReceiveBlock()
	if x.waits != nil {
		d := time.Since(t0)
		x.waits.add(int64(d))
		if x.tc != nil {
			st := int64(t0.Sub(x.tc.epoch))
			x.tc.record("topic.recv_wait", st, st+int64(d), -1, 0)
		}
	}
	if err != nil {
		return err
	}
	x.handle(p, isCtl)
	return nil
}

// run drains until the generator has finished (genDone) and the
// conservation ledger closes. Once it sees genDone it sets final and
// wakes itself: it publishes a control tick and waits for it, which
// also pushes every frame corked before it through the stream.
func (x *fanoutReceiver) run(genDone *atomic.Bool, expired *atomic.Bool) error {
	var tickBuf [msgSize]byte
	for {
		if x.sweep() {
			continue
		}
		if !genDone.Load() {
			if x.sched.ctlDue(x.ctlNext) < x.sched.bulkDue(x.bulkNext) {
				if err := x.block(x.r.ctl, true); err != nil {
					return err
				}
			} else if err := x.block(x.r.bulk[0], false); err != nil {
				return err
			}
			continue
		}
		x.final.Store(true)
		l := x.r.ledger()
		if l.accounted() == l.offered {
			return nil
		}
		if l.accounted() > l.offered {
			return fmt.Errorf("conservation violated: %v", l)
		}
		if expired.Load() {
			return fmt.Errorf("drain did not converge in %v: %v", drainWait, l)
		}
		n := x.tab.fill(tickBuf[:], kindTick, x.ticks)
		x.ticks++
		if _, err := x.r.ctlPub.Publish(tickBuf[:n]); err != nil {
			return err
		}
		if err := x.block(x.r.ctl, true); err != nil {
			if expired.Load() {
				return fmt.Errorf("drain did not converge in %v: %v", drainWait, x.r.ledger())
			}
			return err
		}
	}
}

func runFanout(cfg *runConfig, ph phase) (*report, error) {
	rep := newReport()
	var tc *tracer
	if ph.traced {
		tc = newTracer(1 << 17)
		rep.tracer = tc
	}
	tab := newPayloadTable(cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	var ctlN, ctlGot int64
	var light []bool // per pass: a light pass
	passes, err := measurePasses(rep, ph, workload[*fanoutRig]{
		build:    func() (*fanoutRig, error) { return newFanoutRig(ph.traced, tc) },
		probe:    func(r *fanoutRig) error { return r.probe(tab) },
		teardown: func(r *fanoutRig) error { r.close(); return nil },
		meter:    func(*fanoutRig) *cpuMeter { return &cpuMeter{} },
		pass: func(r *fanoutRig, d time.Duration) (passResult, error) {
			isLight := len(light)%satEvery != 0
			light = append(light, isLight)
			rate := bulkRate
			if isLight {
				rate = bulkLightRate
			}
			res, n, got, err := fanoutPass(rep, r, tab, rate, rng.Int63(), tc, d)
			ctlN += n
			ctlGot += got
			return res, err
		},
	})
	if err != nil {
		return nil, err
	}
	var sat, low []passResult
	for i, p := range passes {
		if light[i] {
			low = append(low, p)
		} else {
			sat = append(sat, p)
		}
	}
	summarizeRate(rep, sat)
	if len(low) == 0 {
		// A one-pass run (the traced run) has only the saturated pass.
		summarizeLatency(rep, sat, ph.traced)
	} else {
		summarizeLatency(rep, low, ph.traced)
		satLat := pooled(sat).sorted()
		rep.timing("ctl_saturated_p50_us", satLat, 50, 1e3, "us")
		rep.timing("ctl_saturated_p99_us", satLat, 99, 1e3, "us")
	}
	bulkMedian(rep, sat)
	rep.failed = ctlN - ctlGot
	rep.set("harness.loss_ratio", float64(rep.failed)/float64(max(ctlN, 1)), "ratio")
	return rep, nil
}

// fanoutPass publishes the schedule for d at rate Bulk publishes a
// second, with the Control jitter drawn from jitterSeed, drains, and
// checks the conservation law. It returns the pass, and the control
// frames published and delivered. On a traced rig it also reports the
// per-layer metrics.
func fanoutPass(rep *report, r *fanoutRig, tab *payloadTable, rate int, jitterSeed int64, tc *tracer, d time.Duration) (passResult, int64, int64, error) {
	traced := r.pubTw != nil
	g := &generator{r: r, tab: tab, tc: tc,
		bulkN: uint32(int64(rate) * int64(d) / int64(time.Second)),
		ctlN:  uint32(int64(ctlRate) * int64(d) / int64(time.Second)),
		late:  newSamples(1 << 18), allocFree: newSamples(1 << 14)}
	sched := &schedule{epoch: time.Now(), bulkGap: int64(time.Second) / int64(rate), ctlGap: int64(time.Second) / ctlRate}
	jr := rand.New(rand.NewSource(jitterSeed))
	sched.ctlJitter = make([]int64, 4096)
	for i := range sched.ctlJitter {
		sched.ctlJitter[i] = jr.Int63n(sched.ctlGap)
	}
	g.sched = sched
	res := passResult{lat: newSamples(1 << 16)}
	x := &fanoutReceiver{r: r, tab: tab, sched: sched, tc: tc,
		bulkLat: newSamples(1 << 16), ctlLat: res.lat, ctlSeen: make([]bool, g.ctlN)}
	rep.attempted += int64(g.bulkN + g.ctlN)
	if traced {
		x.waits = newSamples(1 << 18)
		g.pubNs = newSamples(1 << 20)
	}

	var before fanoutSnap
	if traced {
		before = snapFanout(r)
		r.pubTw.on.Store(true)
		r.subTw.on.Store(true)
	}
	w, err := (&cpuMeter{}).start()
	if err != nil {
		return res, 0, 0, err
	}
	bulk0, all0 := r.delivered()
	sched.start = int64(time.Since(sched.epoch))
	var genDone, expired atomic.Bool
	var wg sync.WaitGroup
	var recvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		recvErr = x.run(&genDone, &expired)
	}()
	pubErr := g.run()
	bulk1, all1 := r.delivered()
	if res.cpu, err = w.stop(); err != nil {
		pubErr = errors.Join(pubErr, err)
	}
	atEnd := r.ledger()
	var after fanoutSnap
	if traced {
		r.pubTw.on.Store(false)
		r.subTw.on.Store(false)
		after = snapFanout(r)
	}
	wd := time.AfterFunc(drainWait, func() {
		expired.Store(true)
		r.subD.Close() // ends a blocked receive with ErrClosed
	})
	genDone.Store(true)
	// A receiver blocked on a subscriber whose next frame will never
	// come (the schedule is over, or that frame was shed) is woken by a
	// tick on each topic until it takes over its own wake-ups.
	var tick [msgSize]byte
	for pubErr == nil && !x.final.Load() && !expired.Load() {
		n := tab.fill(tick[:], kindTick, 0)
		_, err := r.ctlPub.Publish(tick[:n])
		if err == nil {
			_, err = r.bulkPub.Publish(tick[:n])
		}
		pubErr = err
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	wd.Stop()
	if pubErr != nil {
		return res, 0, 0, fmt.Errorf("publish: %w", pubErr)
	}
	if recvErr != nil {
		rep.problem("%v", recvErr)
	}
	for _, b := range x.bad {
		rep.problem("%s", b)
	}
	res.ops, res.msgs = bulk1-bulk0, all1-all0
	res.bulk = x.bulkLat
	rep.note("fanout pass at %d/s: offered %d bulk x %d + %d control in %.2fs; at the schedule end %v; after the drain %v",
		rate, g.bulkN, bulkSubs, g.ctlN, res.cpu.wall.Seconds(), atEnd, r.ledger())
	if !traced {
		return res, int64(g.ctlN), int64(x.ctlGot), nil
	}

	msgs := float64(res.msgs)
	rep.set("harness.msgs", msgs, "count")
	ls := g.late.sorted()
	rep.timing("harness.gen_late_p50_us", ls, 50, 1e3, "us")
	rep.timing("harness.gen_late_p99_us", ls, 99, 1e3, "us")
	pn := g.pubNs.sorted()
	rep.timing("topic.publish_ns.p50", pn, 50, 1, "ns")
	rep.timing("topic.publish_ns.p99", pn, 99, 1, "ns")
	la, lb := before.ledger, after.ledger
	if tot := float64(lb.offered - la.offered); tot > 0 {
		rep.set("topic.fanout_drop_ratio", float64(lb.pubDropped-la.pubDropped)/tot, "ratio")
	}
	rep.set("topic.throttled", float64(lb.throttled-la.throttled), "count")
	rep.set("topic.recv_drops", float64(lb.recvDropped-la.recvDropped), "count")
	rep.timing("topic.recv_wait_ns.p50", x.waits.sorted(), 50, 1, "ns")
	rep.timing("core.alloc_free_ns.p50", g.allocFree.sorted(), 50, 1, "ns")
	rep.set("proc.bench_busy_cores", res.cpu.cores(res.cpu.self), "cores")
	reportEngine(rep, before.eng, after.eng, msgs)
	reportGo(rep, before.mem, after.mem, msgs)
	reportTransport(rep, r.pubTw, before.tr, after.tr, r.subTw)
	reportOneway(rep, "wire.oneway_ns.p50", before.oneway, after.oneway)
	return res, int64(g.ctlN), int64(x.ctlGot), nil
}

// bulkMedian reports bulk_p50_us, the Bulk one-way latency from the
// due time over the saturated passes' samples. It is printed with the
// workload's figures but is not an end-to-end metric: above capacity
// it measures how full the queues run.
func bulkMedian(rep *report, ps []passResult) {
	all := newSamples(1 << 22)
	for _, p := range ps {
		for _, v := range p.bulk.v {
			all.add(v)
		}
	}
	rep.timing("bulk_p50_us", all.sorted(), 50, 1e3, "us")
}

// delivered returns the bulk frames and all frames the subscribers
// have taken so far, set-up probes excluded.
func (r *fanoutRig) delivered() (bulk, all uint64) {
	for _, s := range r.bulk {
		bulk += s.Received()
	}
	bulk -= uint64(r.probes) * bulkSubs
	return bulk, bulk + r.ctl.Received() - uint64(r.probes)
}

// generator publishes the schedule open loop from the calling
// goroutine: it publishes everything due, then sleeps until the next
// due time, and records how late each publish ran.
type generator struct {
	r           *fanoutRig
	tab         *payloadTable
	sched       *schedule
	tc          *tracer
	bulkN, ctlN uint32
	late        *samples // ns behind the due time
	pubNs       *samples // traced: Publisher.Publish
	allocFree   *samples // traced: an AllocBuffer/FreeBuffer pair per control publish
}

func (g *generator) run() error {
	var buf [msgSize]byte
	var bi, ci uint32
	s := g.sched
	for bi < g.bulkN || ci < g.ctlN {
		now := s.now()
		for bi < g.bulkN || ci < g.ctlN {
			isCtl := ci < g.ctlN && (bi >= g.bulkN || s.ctlDue(ci) <= s.bulkDue(bi))
			due := s.bulkDue(bi)
			if isCtl {
				due = s.ctlDue(ci)
			}
			if due > now {
				break
			}
			var root int32 = -1
			if g.tc != nil {
				root = g.tc.open()
			}
			p0 := time.Now()
			var err error
			if isCtl {
				n := g.tab.fill(buf[:], kindCtl, ci)
				_, err = g.r.ctlPub.Publish(buf[:n])
				ci++
			} else {
				n := g.tab.fill(buf[:], kindBulk, bi)
				_, err = g.r.bulkPub.Publish(buf[:n])
				bi++
			}
			if err != nil {
				return err
			}
			p1 := time.Now()
			g.late.add(int64(p0.Sub(s.epoch)) - due)
			if g.pubNs != nil {
				g.pubNs.add(int64(p1.Sub(p0)))
			}
			if g.tc != nil {
				s0, s1 := int64(p0.Sub(g.tc.epoch)), int64(p1.Sub(g.tc.epoch))
				g.tc.record("topic.publish", s0, s1, root, bi+ci)
				g.tc.fill(root, "harness.publish", s0, s1, -1, bi+ci)
			}
			if isCtl && g.pubNs != nil {
				a0 := time.Now()
				if m, err := g.r.pubD.AllocBuffer(); err == nil {
					g.r.pubD.FreeBuffer(m)
					g.allocFree.add(int64(time.Since(a0)))
				}
			}
		}
		next := s.bulkDue(bi)
		if bi >= g.bulkN || (ci < g.ctlN && s.ctlDue(ci) < next) {
			next = s.ctlDue(ci)
		}
		if d := next - s.now(); d > 0 && (bi < g.bulkN || ci < g.ctlN) {
			time.Sleep(time.Duration(d))
		}
	}
	return nil
}

type fanoutSnap struct {
	ledger fanoutLedger
	eng    engineCounts
	mem    runtime.MemStats
	tr     nettrans.Stats
	oneway metrics.HistSnapshot
}

func snapFanout(r *fanoutRig) fanoutSnap {
	var s fanoutSnap
	s.ledger = r.ledger()
	ps, ss := r.pubReg.Snapshot(), r.subReg.Snapshot()
	s.eng = engineFrom(ps).plus(engineFrom(ss))
	s.oneway = ss.Histograms["flipc_recv_latency_ns"]
	s.tr = sumStats(r.pubTr.Stats(), r.subTr.Stats())
	runtime.ReadMemStats(&s.mem)
	return s
}
