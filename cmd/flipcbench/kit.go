package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/interconnect"
	"flipc/internal/stats"
	"flipc/internal/topic"
	"flipc/internal/wire"
)

// The harness the wall-clock modes (-pubsub, -agg, -gateway) share:
// domains, stamped paced publishing, subscriber drains, settle waits,
// the subscriber side of the fanout law, percentiles and the report.

// writeReport writes report as indented JSON to path, or to stdout
// when path is "" or "-".
func writeReport(path string, report any) error {
	var out io.Writer = os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// msgSize is every bench domain's and transport's message size.
const msgSize = 128

// startDomain starts a domain with the benches' sizing on tr.
func startDomain(node wire.NodeID, tr interconnect.Transport, eng engine.Config) (*core.Domain, error) {
	d, err := core.NewDomain(core.Config{
		Node: node, MessageSize: msgSize, NumBuffers: 2048, MaxEndpoints: 64,
		DefaultQueueDepth: 64, Engine: eng,
	}, tr)
	if err == nil {
		d.Start()
	}
	return d, err
}

// fabricDomains starts one domain per node 0..n-1 on a fresh
// in-process Fabric. closeAll closes them in reverse order.
func fabricDomains(n int) (ds []*core.Domain, closeAll func(), err error) {
	fabric := interconnect.NewFabric(4096)
	closeAll = func() {
		for i := len(ds) - 1; i >= 0; i-- {
			ds[i].Close()
		}
	}
	for node := wire.NodeID(0); int(node) < n; node++ {
		tr, err := fabric.Attach(node)
		var d *core.Domain
		if err == nil {
			d, err = startDomain(node, tr, engine.Config{})
		}
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ds = append(ds, d)
	}
	return ds, closeAll, nil
}

// stamp writes the send time into a payload's first 8 bytes.
func stamp(payload []byte) {
	binary.BigEndian.PutUint64(payload[:8], uint64(time.Now().UnixNano()))
}

// A sample is one stamped delivery: its send time and its one-way
// latency.
type sample struct {
	sentNs int64
	latUs  float64
}

// stampSample reads a stamp back as a sample taken now.
func stampSample(payload []byte) sample {
	sent := int64(binary.BigEndian.Uint64(payload[:8]))
	return sample{sent, float64(time.Now().UnixNano()-sent) / 1e3}
}

// p50p99 returns the median and the 99th percentile of samples, both 0
// for an empty sample.
func p50p99(samples []float64) (p50, p99 float64) {
	pct := func(p float64) float64 {
		v, _ := stats.Percentile(samples, p) // fails only on an empty sample, with 0
		return v
	}
	return pct(50), pct(99)
}

// publishPaced publishes n stamped payloads gap apart on the clock
// (n < 0: until stop closes) and returns when it started. The wait
// spins on the clock (time.Sleep granularity is too coarse at these
// gaps) but yields each turn so the engine goroutines make progress on
// small core counts; idle, when set, runs in every turn of the wait.
func publishPaced(n int, gap time.Duration, stop <-chan struct{}, idle func(),
	payload []byte, publish func([]byte) error) (time.Time, error) {
	t0 := time.Now()
	next := t0
	for i := 0; n < 0 || i < n; i++ {
		select {
		case <-stop:
			return t0, nil
		default:
		}
		for time.Now().Before(next) {
			if idle != nil {
				idle()
			}
			runtime.Gosched()
		}
		next = next.Add(gap)
		stamp(payload)
		if err := publish(payload); err != nil {
			return t0, err
		}
	}
	return t0, nil
}

// waitUntil polls cond every millisecond until it holds (true) or
// timeout has passed (false).
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// A sink is one subscriber inbox, owned by its drain goroutine.
type sink struct {
	s     *topic.Subscriber
	renew bool          // durable: Renew every 20 empty polls
	delay time.Duration // a slow consumer's pause after each delivery
	lat   []sample      // stamped live deliveries (replays excluded)
}

// drain runs one goroutine per sink (each inbox is single-threaded).
// stop ends them once every inbox has run dry, and waits; it may be
// called more than once.
func drain(sinks []*sink) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, k := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle, spins := 0, 0
			for {
				payload, flags, ok := k.s.Receive()
				if !ok {
					select {
					case <-done:
						idle++
						if idle > 100 {
							return
						}
					default:
					}
					spins++
					if k.renew && spins%20 == 0 {
						// Ack/resume cadence: heals tail loss and moves
						// the cursor so the run can quiesce. The drain
						// goroutine owns the subscriber, so Renew is its
						// call to make.
						_ = k.s.Renew()
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				idle = 0
				if len(payload) >= 8 && flags&topic.ReplayFlag == 0 {
					k.lat = append(k.lat, stampSample(payload))
				}
				if k.delay > 0 {
					time.Sleep(k.delay)
				}
			}
		}()
	}
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// latencies pools the one-way latencies of the sinks' samples that
// pass keep (nil: all of them).
func latencies(sinks []*sink, keep func(sample) bool) []float64 {
	var out []float64
	for _, k := range sinks {
		for _, s := range k.lat {
			if keep == nil || keep(s) {
				out = append(out, s.latUs)
			}
		}
	}
	return out
}

// received sums the subscriber side of the fanout law over sinks:
// frames delivered to the application and frames its inbox dropped.
// AppDrops, not Drops: endpoint discards of publisher hello frames are
// control-plane losses outside the publisher ledgers.
func received(sinks ...*sink) (delivered, dropped uint64) {
	for _, k := range sinks {
		delivered += k.s.Received()
		dropped += k.s.AppDrops()
	}
	return delivered, dropped
}
