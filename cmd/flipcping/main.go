// Command flipcping measures round-trip latency against a flipcd echo
// endpoint over TCP — the paper's two-way-exchange methodology on the
// ethernet development platform. Wall-clock numbers here characterize
// the Go/TCP substrate, not the Paragon (use flipcbench for the
// paper-model figures).
//
// Usage:
//
//	flipcping -node 2 -listen 127.0.0.1:0 \
//	          -peer 0=127.0.0.1:7000 -target 0x<echo addr> -count 100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flipc/internal/core"
	"flipc/internal/engine"
	"flipc/internal/metrics"
	"flipc/internal/nettrans"
	"flipc/internal/stats"
	"flipc/internal/wire"
)

func main() {
	var (
		node    = flag.Int("node", 2, "this node's ID")
		listen  = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peers   = flag.String("peer", "", "comma-separated peer list: id=host:port,...")
		target  = flag.String("target", "", "echo endpoint address (hex, from flipcd)")
		count   = flag.Int("count", 100, "number of two-way exchanges")
		msgSize = flag.Int("msgsize", 128, "fixed message size (must match flipcd)")
	)
	flag.Parse()
	if *target == "" {
		fatal(fmt.Errorf("missing -target (the address flipcd printed)"))
	}
	dst, err := wire.ParseAddr(*target)
	if err != nil {
		fatal(fmt.Errorf("-target: %w", err))
	}

	tr, err := nettrans.Listen(wire.NodeID(*node), *listen, *msgSize)
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	for _, part := range strings.Split(*peers, ",") {
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			fatal(fmt.Errorf("bad -peer entry %q", part))
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			fatal(err)
		}
		if err := tr.Dial(wire.NodeID(id), kv[1]); err != nil {
			fatal(err)
		}
	}

	// A registry makes the engine stamp outgoing pings (flipcd records
	// true one-way delivery latency when run with -http) and record the
	// one-way latency of stamped replies here.
	reg := metrics.NewRegistry()
	d, err := core.NewDomain(core.Config{
		Node: wire.NodeID(*node), MessageSize: *msgSize, NumBuffers: 32,
		Engine: engine.Config{Metrics: reg},
	}, tr)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	d.Start()

	rep, err := d.NewRecvEndpoint(8)
	if err != nil {
		fatal(err)
	}
	sep, err := d.NewSendEndpoint(8)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < 4; i++ {
		m, err := d.AllocBuffer()
		if err != nil {
			fatal(err)
		}
		if err := rep.Post(m); err != nil {
			fatal(err)
		}
	}

	my := uint32(rep.Addr())
	var rtts []float64
	lost := 0
	for i := 0; i < *count; i++ {
		m, err := d.AllocBuffer()
		if err != nil {
			fatal(err)
		}
		p := m.Payload()
		p[0], p[1], p[2], p[3] = byte(my>>24), byte(my>>16), byte(my>>8), byte(my)
		n := 4 + copy(p[4:], fmt.Sprintf("ping %d", i))
		start := time.Now()
		if err := sep.Send(m, dst, n); err != nil {
			fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		gotReply := false
		for time.Now().Before(deadline) {
			if reply, ok := rep.Receive(); ok {
				rtts = append(rtts, float64(time.Since(start).Microseconds()))
				gotReply = true
				if rep.Post(reply) != nil {
					d.FreeBuffer(reply)
				}
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		if !gotReply {
			lost++
		}
		if done, ok := sep.Acquire(); ok {
			d.FreeBuffer(done)
		}
	}
	if len(rtts) == 0 {
		fatal(fmt.Errorf("no replies (%d lost)", lost))
	}
	sum, err := stats.Summarize(rtts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flipcping: %d exchanges, %d lost\n", len(rtts), lost)
	fmt.Printf("rtt µs: %v\n", sum)
	fmt.Printf("one-way estimate: %.1f µs (rtt/2; TCP substrate, not Paragon)\n", sum.Mean/2)
	// If the echo daemon stamps its replies (flipcd -http), the engine
	// recorded their true one-way latency — report the measured figure
	// next to the rtt/2 estimate.
	if lat, ok := reg.Snapshot().Histograms["flipc_recv_latency_ns"]; ok && lat.Count > 0 {
		fmt.Printf("one-way measured: p50=%.1f µs p99=%.1f µs (%d stamped replies)\n",
			lat.Quantile(0.5)/1e3, lat.Quantile(0.99)/1e3, lat.Count)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flipcping: %v\n", err)
	os.Exit(1)
}
