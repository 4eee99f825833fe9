package main

import (
	"bytes"
	"fmt"

	"flipc/internal/gateway"
	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// nGateways is the scenario's gateway count: three independent edge
// multiplexers, one of which is killed mid-traffic.
const nGateways = 3

// simClient is one edge client: it speaks the wire framing protocol in
// both directions — requests are encoded with the codec and fed through
// the scanner into HandleFrame, deliveries are popped as raw frames and
// re-scanned/decoded — so every message crosses the client framing
// boundary exactly as it would over TCP.
type simClient struct {
	c       *gateway.Client
	decoded uint64 // OpDeliver frames decoded back out of the framing
	other   uint64 // anything else that arrived (must stay zero here)
	measure bool   // laggard clients skew queue-wait, not fabric latency
	samples
}

// runGateway is the client edge plane failure scenario: three gateways
// multiplex simulated clients onto the fabric, every client subscribed
// to the same wildcard pattern ("ctl.*") and recorded as a leased
// presence entry; a fabric-side publisher drives tagged control
// traffic through the pattern plane. Mid-way through phase two, one
// gateway is killed cold — its pump and housekeeping stop, its clients
// are never detached. The scenario enforces the edge-plane contract:
//
//   - zero stranded presence: the dead gateway's clients and pattern
//     subscriptions disappear on lease expiry alone, with no cleanup
//     protocol, while survivors' leases ride through every sweep;
//   - failure isolation: the surviving gateways' ctl p99 stays within
//     1.2x their own pre-kill baseline;
//   - exact conservation across the client framing boundary, per
//     gateway: matched == decoded-by-clients + dropped + throttled,
//     with decoded equal to the mux's own delivered ledger — the
//     framing neither invents nor loses frames;
//   - the backpressure discipline is exercised for real: a laggard
//     client on a surviving gateway must take counted drops and
//     throttles without disturbing its neighbors' ledgers.
func runGateway(o simOpts) error {
	if o.clients < 2 {
		return fmt.Errorf("-gateway needs at least 2 clients per gateway")
	}
	k, err := newKit(o, simcluster.Config{NumBuffers: 16 * o.window})
	if err != nil {
		return err
	}
	defer k.Close()

	// One shared registry (the edge plane's directory), gateways on
	// nodes 0..2, the publisher on node 3.
	reg := nameservice.NewTopicRegistry()
	dir := topic.LocalDirectory{R: reg}

	var (
		muxes [nGateways]*gateway.Mux
		alive [nGateways]bool
		names = make([]string, nGateways)
	)
	for g := 0; g < nGateways; g++ {
		names[g] = fmt.Sprintf("gw-%d", g)
		muxes[g], err = gateway.NewMux(k.Domains[g], gateway.Config{
			Name:         names[g],
			Dir:          dir,
			InboxBuffers: o.window,
			ClientQueue:  8,
			ThrottleAt:   8,
		})
		if err != nil {
			return err
		}
		alive[g] = true
	}

	// sendFrame pushes one request across the framing boundary: encode,
	// re-scan (exactly what the TCP reader does), dispatch.
	sendFrame := func(g int, cl *gateway.Client, fr gateway.Frame) error {
		enc, err := gateway.AppendFrame(nil, fr)
		if err != nil {
			return err
		}
		body, err := gateway.NewScanner(bytes.NewReader(enc)).Next()
		if err != nil {
			return err
		}
		muxes[g].HandleFrame(cl, body)
		return nil
	}

	// Clients: o.clients per gateway, all subscribed to "ctl.*" on the
	// control class. Client 0 of gateway 0 is the laggard: it drains
	// two hundred times slower than its queue fills, so the bounded
	// queue must shed with counted drops and throttles.
	const pattern = "ctl.*"
	clientsOf := make([][]*simClient, nGateways)
	for g := 0; g < nGateways; g++ {
		for i := 0; i < o.clients; i++ {
			cl := &simClient{c: muxes[g].Attach(), measure: true}
			if err := sendFrame(g, cl.c, gateway.Frame{
				Op: gateway.OpHello, Ver: 1, Name: fmt.Sprintf("c%d-%d", g, i),
			}); err != nil {
				return err
			}
			if err := sendFrame(g, cl.c, gateway.Frame{
				Op: gateway.OpSub, Class: uint8(topic.Control), Name: pattern,
			}); err != nil {
				return err
			}
			if b, ok := cl.c.PopOut(); ok {
				return fmt.Errorf("client %d/%d refused at setup: % x", g, i, b)
			}
			clientsOf[g] = append(clientsOf[g], cl)
		}
	}
	laggard := clientsOf[0][0]
	laggard.measure = false

	if reg.PresenceCount() != nGateways*o.clients {
		return fmt.Errorf("presence after setup: %d, want %d", reg.PresenceCount(), nGateways*o.clients)
	}
	if reg.PatternCount() != nGateways {
		return fmt.Errorf("pattern pairs after setup: %d, want %d", reg.PatternCount(), nGateways)
	}

	// Fabric-side publisher on a pattern-only control topic: nobody
	// subscribes to "ctl.rate" exactly, the whole fanout plan comes
	// from the wildcard plane.
	const ctlTopic = "ctl.rate"
	pub, err := topic.NewPublisher(k.Domains[nGateways], dir, topic.PublisherConfig{
		Topic: ctlTopic, Class: topic.Control, Window: o.window, RefreshEvery: 8,
	})
	if err != nil {
		return err
	}
	if pub.PatternSubscribers() != nGateways {
		return fmt.Errorf("pattern plan: %d gateways, want %d", pub.PatternSubscribers(), nGateways)
	}

	// Tickers on the virtual clock: gateway pumps every poll,
	// housekeeping (lease renewal, saturation probe) every 200 polls,
	// registry sweep epochs every 1000 polls — a dead gateway's leases
	// expire after DefaultTopicTTL missed sweeps with no other party
	// lifting a finger.
	for g := 0; g < nGateways; g++ {
		k.Clock.NewTicker(k.poll, func() {
			if alive[g] {
				muxes[g].Pump()
			}
		})
		k.Clock.NewTicker(200*k.poll, func() {
			if alive[g] {
				muxes[g].Housekeeping()
			}
		})
	}
	epochEvery := 1000 * k.poll
	k.Clock.NewTicker(epochEvery, func() { reg.Advance() })

	// Client drain loops: decode every popped frame back through the
	// scanner — the receive half of the framing boundary. Tags resolve
	// decode times back to the virtual publish instant.
	led := newLedger(k.Clock)
	drain := func(cl *simClient) {
		for {
			b, ok := cl.c.PopOut()
			if !ok {
				return
			}
			body, err := gateway.NewScanner(bytes.NewReader(b)).Next()
			if err != nil {
				fatal(fmt.Errorf("unscannable frame from gateway: %v", err))
			}
			fr, err := gateway.DecodeBody(body)
			if err != nil {
				fatal(fmt.Errorf("undecodable frame from gateway: %v", err))
			}
			if fr.Op != gateway.OpDeliver {
				cl.other++
				continue
			}
			cl.decoded++
			if cl.measure {
				cl.lat = led.resolve(cl.lat, fr.Payload)
			}
		}
	}
	for g := 0; g < nGateways; g++ {
		for _, cl := range clientsOf[g] {
			period := k.poll
			if cl == laggard {
				period = 200 * k.poll
			}
			k.Clock.NewTicker(period, func() { drain(cl) })
		}
	}
	publish := func() { led.publish(pub, true) }

	// Quiesce: run until the edge ledgers stop moving and every live
	// queue has drained (the laggard needs whole drain periods).
	var last uint64
	quiet := func() bool {
		var cur uint64
		var queued int
		for g := 0; g < nGateways; g++ {
			st := muxes[g].Stats()
			cur += st.Received + st.Matched
			for _, cl := range clientsOf[g] {
				cur += cl.decoded
				queued += cl.c.Queued()
			}
		}
		stable := queued == 0 && cur == last
		last = cur
		return stable
	}
	quiesce := func(end sim.Time) {
		last = ^uint64(0)
		k.settle(end, 500, quiet)
	}

	// Phase one: traffic through all three gateways, establishing each
	// gateway's own latency baseline.
	_, end := k.phase(publish)
	quiesce(end)
	before, err := summarizeEach(clientsOf, names, "baseline")
	if err != nil {
		return err
	}

	// Phase two: same traffic, with gateway 1 killed cold mid-phase —
	// no detach, no unsubscribe, no presence drop. Everything it held
	// must die by lease expiry alone.
	const victim = 1
	start, end := k.phase(publish)
	k.Clock.At(start+sim.Time(o.msgs/2)*k.gap+k.gap/2, func() { alive[victim] = false })
	quiesce(end)
	after, err := summarizeEach(clientsOf, names, "phase two")
	if err != nil {
		return err
	}

	// Let the lease sweeps run: DefaultTopicTTL epochs plus slack. The
	// survivors keep renewing underneath; the victim cannot.
	k.Clock.RunUntil(k.Clock.Now() + sim.Time(nameservice.DefaultTopicTTL+3)*epochEvery)

	fmt.Printf("flipcsim -gateway: %d nodes, %d gateways, %d clients each, poll %v, gap %v\n",
		o.nodes, nGateways, o.clients, o.poll, o.gap)

	// Zero stranded presence: the victim's clients are gone from the
	// registry, the survivors' full populations remain.
	byGW := reg.PresenceByGateway()
	if n := byGW[names[victim]]; n != 0 {
		return fmt.Errorf("%d presence entries stranded for dead %s after lease sweep", n, names[victim])
	}
	for g := 0; g < nGateways; g++ {
		if g == victim {
			continue
		}
		if byGW[names[g]] != o.clients {
			return fmt.Errorf("surviving %s lost presence across the sweep: %d of %d", names[g], byGW[names[g]], o.clients)
		}
	}
	if reg.PresenceCount() != (nGateways-1)*o.clients {
		return fmt.Errorf("registry presence %d, want %d", reg.PresenceCount(), (nGateways-1)*o.clients)
	}
	if reg.PatternCount() != nGateways-1 {
		return fmt.Errorf("registry pattern pairs %d after sweep, want %d", reg.PatternCount(), nGateways-1)
	}
	fmt.Printf("lease sweep: %s fully expired (presence %d, patterns %d; survivors intact)\n",
		names[victim], byGW[names[victim]], reg.PatternCount())

	// Conservation across the client framing boundary, per gateway:
	// every matched frame is decoded by a client or counted against
	// one, and the framing layer's view agrees exactly with the mux
	// ledger. Holds for the victim too — its counters just froze.
	for g := 0; g < nGateways; g++ {
		st := muxes[g].Stats()
		var decoded, other, delivered, dropped, throttled uint64
		var queued int
		for _, cl := range clientsOf[g] {
			d, dr, th := cl.c.Ledgers()
			delivered += d
			dropped += dr
			throttled += th
			decoded += cl.decoded
			other += cl.other
			queued += cl.c.Queued()
		}
		fmt.Printf("%s: received %d matched %d -> decoded %d dropped %d throttled %d (inbox drops %d)\n",
			names[g], st.Received, st.Matched, decoded, dropped, throttled,
			muxes[g].InboxDrops(int(topic.Control)))
		if other != 0 {
			return fmt.Errorf("%s clients decoded %d non-deliver frames", names[g], other)
		}
		if queued != 0 {
			return fmt.Errorf("%s still holds %d queued frames after quiesce", names[g], queued)
		}
		if decoded != delivered {
			return fmt.Errorf("%s framing boundary drifted: clients decoded %d, mux delivered %d", names[g], decoded, delivered)
		}
		if st.Matched != decoded+dropped+throttled {
			return fmt.Errorf("%s conservation violated: matched %d != decoded %d + dropped %d + throttled %d",
				names[g], st.Matched, decoded, dropped, throttled)
		}
		if st.Matched != st.Received*uint64(o.clients) {
			return fmt.Errorf("%s wildcard fanout short: matched %d of received %d x %d clients",
				names[g], st.Matched, st.Received, o.clients)
		}
		if st.Unmatched != 0 || st.BadFrames != 0 {
			return fmt.Errorf("%s saw %d unmatched and %d bad frames", names[g], st.Unmatched, st.BadFrames)
		}
	}
	fmt.Println("conservation: ok across the framing boundary on every gateway")

	// The backpressure discipline fired on the laggard — counted, not
	// silent — and only on the laggard.
	if o.msgs >= 32 {
		_, lagDrop, lagThr := laggard.c.Ledgers()
		if lagDrop == 0 || lagThr == 0 {
			return fmt.Errorf("laggard escaped the queue bound: dropped %d throttled %d", lagDrop, lagThr)
		}
		for g := 0; g < nGateways; g++ {
			for i, cl := range clientsOf[g] {
				if cl == laggard {
					continue
				}
				if _, dr, th := cl.c.Ledgers(); dr != 0 || th != 0 {
					return fmt.Errorf("client %d/%d took collateral loss from the laggard: dropped %d throttled %d", g, i, dr, th)
				}
			}
		}
		fmt.Printf("backpressure: laggard shed %d drops + %d throttles; zero collateral on its neighbors\n", lagDrop, lagThr)
	}

	if err := isolated(names, before, after, victim, "gateway kill"); err != nil {
		return err
	}
	fmt.Println("isolation: ok (surviving gateways unperturbed by the kill)")
	return nil
}
