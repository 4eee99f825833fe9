package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/gateway"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nameservice"
	"flipc/internal/nettrans"
	"flipc/internal/topic"
)

// gateway_loop publishes on gwTopic from one client and receives it on
// another through the gwPattern wildcard, one message in flight. The
// pattern plane wraps each payload in a topic envelope (a length byte
// and the topic name) inside the 120-byte message payload, which caps
// the client payload at gwMaxPayload.
const (
	gwTopic      = "bench.loop"
	gwPattern    = "bench.*"
	gwClass      = topic.Normal
	gwMaxPayload = msgSize - 8 - 1 - len(gwTopic)
)

// gatewayRig is one set-up of gateway_loop: a gateway.Server on a
// Fabric domain in this process and two TCP clients.
type gatewayRig struct {
	dom      *core.Domain
	tw       *timedTransport // nil untraced
	reg      *metrics.Registry
	mux      *gateway.Mux
	srv      *gateway.Server
	served   chan error
	pub, sub *gateway.Conn
	sent     uint64 // publishes, probe included
	lost     bool   // a publish was never delivered
}

func newGatewayRig(traced bool, tc *tracer) (*gatewayRig, error) {
	r := &gatewayRig{}
	fabric := interconnect.NewFabric(4096)
	ft, err := fabric.Attach(0)
	if err != nil {
		return nil, err
	}
	ecfg := engine.Config{}
	if traced {
		r.reg = metrics.NewRegistry()
		ecfg.Metrics = r.reg
		ft, r.tw = wrapTransport(ft, tc, "fabric")
	}
	r.dom, err = core.NewDomain(core.Config{Node: 0, MessageSize: msgSize,
		NumBuffers: 2048, MaxEndpoints: 64, DefaultQueueDepth: 64, Engine: ecfg}, ft)
	if err != nil {
		return nil, err
	}
	r.dom.Start()
	r.mux, err = gateway.NewMux(r.dom, gateway.Config{Name: "bench-gw",
		Dir: topic.LocalDirectory{R: nameservice.NewTopicRegistry()}})
	if err != nil {
		r.close()
		return nil, err
	}
	r.srv = gateway.NewServer(r.mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	if r.sub, err = gateway.Dial(ln.Addr().String(), "bench-sub"); err != nil {
		r.close()
		return nil, err
	}
	if r.pub, err = gateway.Dial(ln.Addr().String(), "bench-pub"); err != nil {
		r.close()
		return nil, err
	}
	// The gateway handles a connection's frames in order, so the pong
	// proves the subscription is registered.
	if err := r.sub.Subscribe(gwPattern, gwClass); err != nil {
		r.close()
		return nil, err
	}
	if err := r.sub.Ping([]byte("ready")); err != nil {
		r.close()
		return nil, err
	}
	_ = r.sub.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := r.sub.Recv()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("waiting for the subscription: %w", err)
		}
		if f.Op == gateway.OpPong {
			break
		}
	}
	return r, nil
}

func (r *gatewayRig) close() error {
	if r.pub != nil {
		r.pub.Close()
	}
	if r.sub != nil {
		r.sub.Close()
	}
	var err error
	if r.srv != nil {
		err = r.srv.Close()
		if serr := <-r.served; serr != nil && err == nil {
			err = serr
		}
	}
	if r.dom != nil {
		r.dom.Close()
	}
	return err
}

// gwExchanger runs one publish → wildcard delivery round trip with a
// seeded payload (8..gwMaxPayload bytes, sequence in the first four).
type gwExchanger struct {
	r     *gatewayRig
	rng   *rand.Rand
	seq   uint32
	want  [msgSize]byte
	tc    *tracer
	pubNs *samples // traced: Conn.Publish
	wait  *samples // traced: Conn.RecvDeliver
}

func (x *gwExchanger) one() (time.Duration, error) {
	x.seq++
	n := 8 + x.rng.Intn(gwMaxPayload-8+1)
	x.want[0], x.want[1], x.want[2], x.want[3] = byte(x.seq>>24), byte(x.seq>>16), byte(x.seq>>8), byte(x.seq)
	x.rng.Read(x.want[4:n])
	var root int32 = -1
	if x.tc != nil {
		root = x.tc.open()
	}
	if err := x.r.sub.SetReadDeadline(time.Now().Add(replyWait)); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := x.r.pub.Publish(gwTopic, gwClass, x.want[:n]); err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	sent := time.Now()
	x.r.sent++
	f, err := x.r.sub.RecvDeliver()
	got := time.Now()
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, errNoReply
		}
		return 0, fmt.Errorf("receive: %w", err)
	}
	if f.Name != gwTopic || !bytes.Equal(f.Payload, x.want[:n]) {
		return 0, errReplyMismatch
	}
	if x.pubNs != nil {
		x.pubNs.add(int64(sent.Sub(start)))
		x.wait.add(int64(got.Sub(sent)))
	}
	if x.tc != nil {
		e := x.tc.epoch
		x.tc.record("gateway.client_publish", int64(start.Sub(e)), int64(sent.Sub(e)), root, x.seq)
		x.tc.record("gateway.deliver_wait", int64(sent.Sub(e)), int64(got.Sub(e)), root, x.seq)
		x.tc.fill(root, "harness.exchange", int64(start.Sub(e)), int64(got.Sub(e)), -1, x.seq)
	}
	return got.Sub(start), nil
}

// gwLedger is the gateway's side of the loop's conservation: every
// client publish accepted, every frame the subscriber matched, and
// where each went.
type gwLedger struct {
	st                                   gateway.Stats
	delivered, dropped, throttled, queue uint64
	inboxDrops                           uint64
}

func (r *gatewayRig) ledger() gwLedger {
	l := gwLedger{st: r.mux.Stats()}
	for _, c := range r.mux.Clients() {
		d, dr, th := c.Ledgers()
		l.delivered += d
		l.dropped += dr
		l.throttled += th
		l.queue += uint64(c.Queued())
	}
	for lane := 0; lane < gateway.NumClasses; lane++ {
		l.inboxDrops += r.mux.InboxDrops(lane)
	}
	return l
}

func runGateway(cfg *runConfig, ph phase) (*report, error) {
	rep := newReport()
	var tc *tracer
	if ph.traced {
		tc = newTracer(1 << 18)
		rep.tracer = tc
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	passes, err := measurePasses(rep, ph, workload[*gatewayRig]{
		build: func() (*gatewayRig, error) { return newGatewayRig(ph.traced, tc) },
		probe: func(r *gatewayRig) error {
			_, err := (&gwExchanger{r: r, rng: rng}).one()
			return err
		},
		teardown: func(r *gatewayRig) error {
			r.check(rep)
			if err := r.close(); err != nil {
				rep.problem("gateway shutdown: %v", err)
			}
			return nil
		},
		meter: func(*gatewayRig) *cpuMeter { return &cpuMeter{} },
		pass: func(r *gatewayRig, d time.Duration) (passResult, error) {
			return gwPass(rep, r, rng, tc, d)
		},
	})
	if err != nil {
		return nil, err
	}
	summarize(rep, passes, ph.traced)
	rep.set("harness.loss_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	return rep, nil
}

// check is the loop's correctness gate. With one message in flight,
// every accepted publish was matched once and handed to the
// subscriber's writer, the subscriber decoded each of them, and the
// client ledgers balance.
func (r *gatewayRig) check(rep *report) {
	l := r.ledger()
	switch {
	case l.st.PubOK != r.sent || l.st.PubErrs != 0:
		rep.problem("gateway accepted %d publishes (%d refused), %d were sent", l.st.PubOK, l.st.PubErrs, r.sent)
	case l.st.Matched != l.delivered+l.dropped+l.throttled+l.queue:
		rep.problem("client ledgers do not balance: matched %d != delivered %d + dropped %d + throttled %d + queued %d",
			l.st.Matched, l.delivered, l.dropped, l.throttled, l.queue)
	case !r.lost && (l.delivered != r.sent || l.st.Received != r.sent || l.st.Unmatched != 0):
		rep.problem("gateway delivered %d of %d publishes (received %d, unmatched %d)",
			l.delivered, r.sent, l.st.Received, l.st.Unmatched)
	}
}

// gwPass runs round trips back to back for d. On a traced rig it also
// reports the per-layer metrics.
func gwPass(rep *report, r *gatewayRig, rng *rand.Rand, tc *tracer, d time.Duration) (passResult, error) {
	traced := r.tw != nil
	x := &gwExchanger{r: r, rng: rng, tc: tc}
	if traced {
		x.pubNs, x.wait = newSamples(1<<18), newSamples(1<<18)
	}
	res := passResult{lat: newSamples(1 << 18)}
	var before gwSnap
	if traced {
		before = snapGateway(r)
		r.tw.on.Store(true)
	}
	w, err := (&cpuMeter{}).start()
	if err != nil {
		return res, err
	}
	exchanges, lost, runErr := closedLoop(rep, d, res.lat, x.one)
	if res.cpu, err = w.stop(); err != nil {
		return res, err
	}
	r.lost, res.stop = lost, lost
	if runErr != nil {
		return res, runErr
	}
	res.ops, res.msgs = exchanges, exchanges
	if !traced {
		return res, nil
	}
	r.tw.on.Store(false)
	after := snapGateway(r)
	msgs := float64(res.msgs)
	rep.set("harness.msgs", msgs, "count")
	p := x.pubNs.sorted()
	rep.timing("gateway.client_publish_ns.p50", p, 50, 1, "ns")
	wt := x.wait.sorted()
	rep.timing("gateway.deliver_wait_ns.p50", wt, 50, 1, "ns")
	rep.timing("gateway.deliver_wait_ns.p99", wt, 99, 1, "ns")
	a, b := before.ledger, after.ledger
	rep.set("gateway.matched", float64(b.st.Matched-a.st.Matched), "count")
	rep.set("gateway.inbox_drops", float64(b.inboxDrops-a.inboxDrops), "count")
	rep.set("gateway.client_dropped", float64(b.dropped+b.throttled-a.dropped-a.throttled), "count")
	rep.set("gateway.client_queued", float64(b.queue), "count")
	rep.set("proc.bench_busy_cores", res.cpu.cores(res.cpu.self), "cores")
	reportEngine(rep, before.eng, after.eng, msgs)
	reportGo(rep, before.mem, after.mem, msgs)
	reportTransport(rep, r.tw, nettrans.Stats{}, nettrans.Stats{})
	return res, nil
}

type gwSnap struct {
	ledger gwLedger
	eng    engineCounts
	mem    runtime.MemStats
}

func snapGateway(r *gatewayRig) gwSnap {
	var s gwSnap
	s.ledger = r.ledger()
	s.eng = engineFrom(r.reg.Snapshot())
	runtime.ReadMemStats(&s.mem)
	return s
}
