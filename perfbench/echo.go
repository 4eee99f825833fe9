package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/obs"
	"flipc/internal/wire"
)

const (
	msgSize    = 128 // every workload's fixed message size
	replyWait  = time.Second
	echoPrio   = core.Priority(8)
	pingerNode = wire.NodeID(2)
)

// echoRig is one set-up of echo_daemon: a flipcd child and, in this
// process, a pinger domain dialled to it over one TCP connection.
type echoRig struct {
	d        *daemon
	tr       *nettrans.Transport
	tw       *timedTransport // nil untraced
	dom      *core.Domain
	rep, sep *core.Endpoint
	reg      *metrics.Registry // nil untraced
	sent     uint64            // pings sent, probes included
	lost     bool              // an exchange went unanswered
}

func newEchoRig(cfg *runConfig, traced bool, tc *tracer) (*echoRig, error) {
	d, err := startDaemon(cfg.flipcd, traced)
	if err != nil {
		return nil, err
	}
	r := &echoRig{d: d}
	if r.tr, err = nettrans.Listen(pingerNode, "127.0.0.1:0", msgSize); err != nil {
		r.close()
		return nil, err
	}
	if err := r.tr.Dial(1, d.addr); err != nil {
		r.close()
		return nil, err
	}
	var tr interconnect.Transport = r.tr
	ecfg := engine.Config{}
	if traced {
		r.reg = metrics.NewRegistry()
		ecfg.Metrics = r.reg
		tr, r.tw = wrapTransport(r.tr, tc, "nettrans")
	}
	r.dom, err = core.NewDomain(core.Config{Node: pingerNode, MessageSize: msgSize, NumBuffers: 32, Engine: ecfg}, tr)
	if err != nil {
		r.close()
		return nil, err
	}
	r.dom.Start()
	if r.rep, err = r.dom.NewRecvEndpoint(8); err == nil {
		r.sep, err = r.dom.NewSendEndpoint(8)
	}
	for i := 0; err == nil && i < 4; i++ {
		var m *core.Message
		if m, err = r.dom.AllocBuffer(); err == nil {
			err = r.rep.Post(m)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the daemon and the pinger; it returns the daemon's echo
// count (0 if it could not be read).
func (r *echoRig) close() (uint64, error) {
	var echoed uint64
	var err error
	if r.dom != nil {
		r.dom.Close()
	}
	if r.tr != nil {
		r.tr.Close()
	}
	if r.d != nil {
		echoed, err = r.d.stop()
	}
	return echoed, err
}

// exchanger runs pings: a seeded payload (size 8..120 B, reply address
// and sequence in the first 8 bytes) sent to the echo endpoint, then a
// blocking receive of the reply, which must match byte for byte.
type exchanger struct {
	r        *echoRig
	rng      *rand.Rand
	want     [msgSize]byte
	watchdog *time.Timer
	expired  atomic.Bool
	seq      uint32

	// Traced-pass timings (nanoseconds).
	tc                  *tracer
	send, wait, allocFr *samples
}

var errReplyMismatch = errors.New("reply differs from request")

// one runs an exchange and returns its round-trip time. A reply that
// does not arrive within replyWait closes the domain and returns
// errNoReply: the exchange counts as lost, never as latency.
func (x *exchanger) one() (time.Duration, error) {
	r := x.r
	x.seq++
	n := 8 + x.rng.Intn(msgSize-8-8+1)
	my := uint32(r.rep.Addr())
	binary.BigEndian.PutUint32(x.want[0:4], my)
	binary.BigEndian.PutUint32(x.want[4:8], x.seq)
	x.rng.Read(x.want[8:n])

	var root int32 = -1
	var t0 int64
	if x.tc != nil {
		root, t0 = x.tc.open(), x.tc.now()
	}
	a0 := time.Now()
	m, err := r.dom.AllocBuffer()
	allocD := time.Since(a0)
	if err != nil {
		return 0, fmt.Errorf("alloc: %w", err)
	}
	copy(m.Payload(), x.want[:n])

	x.watchdog.Reset(replyWait)
	start := time.Now()
	if err := r.sep.Send(m, r.d.echo, n); err != nil {
		return 0, fmt.Errorf("send: %w", err)
	}
	sent := time.Now()
	r.sent++
	reply, err := r.rep.ReceiveBlock(echoPrio)
	got := time.Now()
	x.watchdog.Stop()
	if err != nil {
		if x.expired.Load() {
			return 0, errNoReply
		}
		return 0, fmt.Errorf("receive: %w", err)
	}
	rtt := got.Sub(start)
	ok := reply.Len() == n && bytes.Equal(reply.Payload()[:n], x.want[:n])
	if err := r.rep.Post(reply); err != nil {
		r.dom.FreeBuffer(reply)
	}
	f0 := time.Now()
	if done, okA := r.sep.Acquire(); okA {
		r.dom.FreeBuffer(done)
	}
	freeD := time.Since(f0)
	if !ok {
		return 0, errReplyMismatch
	}
	if x.send != nil {
		x.send.add(int64(sent.Sub(start)))
		x.wait.add(int64(got.Sub(sent)))
		x.allocFr.add(int64(allocD + freeD))
	}
	if x.tc != nil {
		e := x.tc.epoch
		x.tc.record("core.alloc_free", int64(a0.Sub(e)), int64(a0.Sub(e)+allocD), root, x.seq)
		x.tc.record("core.send", int64(start.Sub(e)), int64(sent.Sub(e)), root, x.seq)
		x.tc.record("core.recv_wait", int64(sent.Sub(e)), int64(got.Sub(e)), root, x.seq)
		x.tc.record("core.alloc_free", int64(f0.Sub(e)), int64(f0.Sub(e)+freeD), root, x.seq)
		x.tc.fill(root, "harness.exchange", t0, x.tc.now(), -1, x.seq)
	}
	return rtt, nil
}

var errNoReply = errors.New("no reply by the deadline")

func runEcho(cfg *runConfig, ph phase) (*report, error) {
	rep := newReport()
	var tc *tracer
	if ph.traced {
		tc = newTracer(1 << 18)
		rep.tracer = tc
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	passes, err := measurePasses(rep, ph, workload[*echoRig]{
		build: func() (*echoRig, error) { return newEchoRig(cfg, ph.traced, tc) },
		probe: func(r *echoRig) error {
			x := newExchanger(r, rng, nil)
			defer x.watchdog.Stop()
			_, err := x.one()
			return err
		},
		teardown: func(r *echoRig) error {
			echoed, err := r.close()
			if err != nil {
				return err
			}
			want := r.sent
			if r.lost {
				want-- // the lost ping may or may not have been echoed
			}
			if echoed < want || echoed > r.sent {
				rep.problem("flipcd echoed %d messages, %d were sent", echoed, r.sent)
			}
			return nil
		},
		meter: func(r *echoRig) *cpuMeter { return &cpuMeter{pids: []int{r.d.pid()}} },
		pass: func(r *echoRig, d time.Duration) (passResult, error) {
			return echoPass(rep, r, rng, tc, d)
		},
	})
	if err != nil {
		return nil, err
	}
	summarize(rep, passes, ph.traced)
	rep.set("harness.loss_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	return rep, nil
}

// echoPass runs exchanges back to back for d. On a traced rig it also
// reports the per-layer metrics.
func echoPass(rep *report, r *echoRig, rng *rand.Rand, tc *tracer, d time.Duration) (passResult, error) {
	traced := r.tw != nil
	x := newExchanger(r, rng, tc)
	defer x.watchdog.Stop()
	if traced {
		x.send, x.wait, x.allocFr = newSamples(1<<16), newSamples(1<<16), newSamples(1<<16)
	}
	res := passResult{lat: newSamples(1 << 18)}
	var before layerSnap
	if traced {
		before = snapEcho(r)
		r.tw.on.Store(true)
	}
	w, err := (&cpuMeter{pids: []int{r.d.pid()}}).start()
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
	// A ping and its echo are both delivered messages.
	res.ops, res.msgs = exchanges, 2*exchanges
	if !traced {
		return res, nil
	}
	r.tw.on.Store(false)
	after := snapEcho(r)
	msgs := float64(res.msgs)
	rep.set("harness.msgs", msgs, "count")
	rep.timing("core.send_ns.p50", x.send.sorted(), 50, 1, "ns")
	wt := x.wait.sorted()
	rep.timing("core.recv_wait_ns.p50", wt, 50, 1, "ns")
	rep.timing("core.recv_wait_ns.p99", wt, 99, 1, "ns")
	rep.timing("core.alloc_free_ns.p50", x.allocFr.sorted(), 50, 1, "ns")
	rep.set("proc.bench_busy_cores", res.cpu.cores(res.cpu.self), "cores")
	rep.set("proc.daemon_busy_cores", res.cpu.cores(res.cpu.perPid[0]), "cores")
	reportEngine(rep, before.eng, after.eng, msgs)
	reportGo(rep, before.mem, after.mem, msgs)
	reportTransport(rep, r.tw, before.tr, after.tr)
	reportOneway(rep, "wire.oneway_ns.p50", before.oneway, after.oneway)
	if after.daemonErr != nil {
		rep.problem("scraping flipcd /metrics: %v", after.daemonErr)
		return res, nil
	}
	dl := after.daemonOneway
	if dl.Count < 2*minBeyond {
		rep.problem("wire.daemon_oneway_ns.p50: only %d stamped pings", dl.Count)
		return res, nil
	}
	rep.metrics["wire.daemon_oneway_ns.p50"] = metric{value: dl.P50, unit: "ns", n: int64(dl.Count)}
	rtt, err := percentile(res.lat.sorted(), 50)
	if m, ok := rep.metrics["wire.oneway_ns.p50"]; ok && err == nil {
		rep.set("wire.daemon_turnaround_ns", float64(rtt)-m.value-dl.P50, "ns")
	}
	// The daemon's engine passes count with the pinger's.
	if dp := after.daemonPolls - before.daemonPolls; msgs > 0 {
		m := rep.metrics["engine.polls_per_msg"]
		m.value += float64(dp) / msgs
		rep.metrics["engine.polls_per_msg"] = m
	}
	return res, nil
}

func newExchanger(r *echoRig, rng *rand.Rand, tc *tracer) *exchanger {
	x := &exchanger{r: r, rng: rng, tc: tc}
	dom := r.dom
	x.watchdog = time.AfterFunc(time.Hour, func() {
		x.expired.Store(true)
		dom.Close() // ends the blocked receive with ErrClosed
	})
	x.watchdog.Stop()
	return x
}

// layerSnap is the state of the per-layer counters at one edge of the
// measured window.
type layerSnap struct {
	eng          engineCounts
	mem          runtime.MemStats
	tr           nettrans.Stats
	oneway       metrics.HistSnapshot
	daemonOneway obs.HistJSON
	daemonPolls  uint64
	daemonErr    error
}

func snapEcho(r *echoRig) layerSnap {
	var s layerSnap
	s.eng = engineFrom(r.reg.Snapshot())
	s.oneway = r.reg.Snapshot().Histograms["flipc_recv_latency_ns"]
	s.tr = r.tr.Stats()
	runtime.ReadMemStats(&s.mem)
	if mj, err := scrape(r.d.httpAddr); err != nil {
		s.daemonErr = err
	} else {
		s.daemonOneway = mj.Histograms["flipc_recv_latency_ns"]
		s.daemonPolls = mj.Counters["flipc_engine_polls_total"]
	}
	return s
}

// scrape reads a daemon's /metrics JSON over a one-shot connection.
func scrape(addr string) (*obs.MetricsJSON, error) {
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var mj obs.MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&mj); err != nil {
		return nil, err
	}
	return &mj, nil
}
