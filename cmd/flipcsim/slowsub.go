package main

import (
	"fmt"

	"flipc/internal/nameservice"
	"flipc/internal/sim"
	"flipc/internal/simcluster"
	"flipc/internal/topic"
)

// slowsubLeg is one full cluster run: a baseline phase with only the
// fast subscriber, then a contended phase where a slow subscriber
// (draining at 1/slowFactor of the publish rate) joins the topic.
type slowsubLeg struct {
	baselineP99 float64 // fast subscriber one-way p99, no slow peer (µs)
	contendP99  float64 // fast subscriber one-way p99 beside the slow peer (µs)
	slowDrops   uint64  // slow subscriber inbox overruns
	slowRecv    uint64  // slow subscriber deliveries
	throttled   uint64  // publisher throttles (credit leg only)
}

// runSlowsub runs the scenario twice — credit off, then credit on — and
// checks the credit leg's guarantees: the slow subscriber's inbox drops
// fall to ~zero (the overrun converts into publisher-side throttles,
// deferral instead of loss) while the fast subscriber's tail latency
// stays within 1.2x of its no-slow-peer baseline.
func runSlowsub(o simOpts) error {
	if o.slowFactor < 2 {
		return fmt.Errorf("-slowsub needs a slow factor >= 2")
	}
	uncredited, err := slowsubOnce(o, false)
	if err != nil {
		return fmt.Errorf("uncredited leg: %w", err)
	}
	credited, err := slowsubOnce(o, true)
	if err != nil {
		return fmt.Errorf("credited leg: %w", err)
	}

	fmt.Printf("flipcsim -slowsub: %d publishes/phase, gap %v, slow subscriber drains 1/%d, window %d\n",
		o.msgs, o.gap, o.slowFactor, o.window)
	fmt.Printf("%-12s %14s %14s %12s %12s %12s\n",
		"leg", "fast p99 µs", "vs baseline", "slow recv", "slow drops", "throttled")
	for _, l := range []struct {
		name string
		leg  *slowsubLeg
	}{{"credit-off", &uncredited}, {"credit-on", &credited}} {
		fmt.Printf("%-12s %14.2f %13.2fx %12d %12d %12d\n",
			l.name, l.leg.contendP99, l.leg.contendP99/l.leg.baselineP99,
			l.leg.slowRecv, l.leg.slowDrops, l.leg.throttled)
	}

	if uncredited.slowDrops == 0 {
		return fmt.Errorf("uncredited leg lost nothing — the slow subscriber was not actually overrun")
	}
	// The tentpole guarantee: overrun converts to throttles, not drops.
	if credited.slowDrops > uncredited.slowDrops/20 {
		return fmt.Errorf("credited slow subscriber still dropped %d (uncredited: %d)",
			credited.slowDrops, uncredited.slowDrops)
	}
	if credited.throttled == 0 {
		return fmt.Errorf("credited leg throttled nothing — credit never engaged")
	}
	ratio := credited.contendP99 / credited.baselineP99
	if ratio > 1.2 {
		return fmt.Errorf("fast subscriber p99 degraded %.2fx beside the slow peer (bound: 1.2x)", ratio)
	}
	fmt.Printf("slowsub: ok (credited drops %d -> throttles %d; fast p99 %.2fx baseline, bound 1.2x)\n",
		credited.slowDrops, credited.throttled, ratio)
	return nil
}

func slowsubOnce(o simOpts, credit bool) (slowsubLeg, error) {
	var leg slowsubLeg
	// Node 0 publishes, node 1 hosts the fast subscriber, node 2 the slow.
	k, err := newKit(o, simcluster.Config{Nodes: 3, NumBuffers: 4*o.window + 32})
	if err != nil {
		return leg, err
	}
	defer k.Close()

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	newSub := func(node int) (*topicSub, error) {
		if credit {
			s, err := topic.NewSubscriberCredit(k.Domains[node], dir, "feed", topic.Normal,
				o.window, o.window, topic.CreditConfig{})
			return &topicSub{sub: s}, err
		}
		return k.subscribe(node, dir, "feed", topic.Normal)
	}
	fast, err := newSub(1)
	if err != nil {
		return leg, err
	}
	pub, err := topic.NewPublisher(k.Domains[0], dir, topic.PublisherConfig{
		Topic: "feed", Class: topic.Normal, Window: o.window,
		RefreshEvery: 16, Credit: credit, CreditBuffers: o.window,
	})
	if err != nil {
		return leg, err
	}
	led := newLedger(k.Clock)
	k.drainEvery(led, []*topicSub{fast})
	publish := func() { led.publish(pub, true) }

	// Handshake before traffic: the hello must be consumed and answered
	// so the baseline phase runs fully credited.
	waitAdverts := func(n int) error {
		if !credit {
			return nil
		}
		deadline := k.Clock.Now() + 10000*k.poll
		for pub.CreditAdverts() < n {
			if k.Clock.Now() > deadline {
				return fmt.Errorf("credit handshake incomplete (%d/%d adverts)", pub.CreditAdverts(), n)
			}
			k.Clock.RunUntil(k.Clock.Now() + 100*k.poll)
		}
		return nil
	}
	if err := waitAdverts(1); err != nil {
		return leg, err
	}

	// Phase A: the fast subscriber alone — the no-slow-peer baseline.
	_, end := k.phase(publish)
	k.settle(end, 500, func() bool {
		d, r := fanout(fast)
		return d+r >= pub.Sent()
	})
	phaseAPub := pub.Published()
	base, err := summarize([]*topicSub{fast})
	if err != nil {
		return leg, fmt.Errorf("baseline phase: %w", err)
	}
	leg.baselineP99 = base.P99

	// The slow subscriber joins, draining one message per slowFactor
	// publish periods — a consumer an order of magnitude behind the
	// topic's offered rate.
	slow, err := newSub(2)
	if err != nil {
		return leg, err
	}
	k.Clock.NewTicker(sim.Time(o.slowFactor)*k.gap, func() { slow.receive(led) })
	// Renewals on a coarse cadence drive the AIMD interval (and keep
	// the lease alive, as a deployment's housekeeping loop would).
	k.Clock.NewTicker(100*k.gap, func() {
		for _, s := range []*topicSub{fast, slow} {
			if err := s.sub.Renew(); err != nil {
				fatal(err)
			}
		}
	})
	if err := pub.Refresh(); err != nil {
		return leg, err
	}
	if err := waitAdverts(2); err != nil {
		return leg, err
	}

	// Phase B: same publish cadence beside the slow peer.
	_, end = k.phase(publish)
	k.settle(end, 2000, func() bool {
		d, r := fanout(fast, slow)
		return d+r >= pub.Sent()
	})

	// Conservation, with the new term: every fanout slot is delivered,
	// counted at a drop ledger, or deliberately throttled.
	slots := phaseAPub + 2*(pub.Published()-phaseAPub)
	delivered, recvDrops := fanout(fast, slow)
	if got := delivered + recvDrops + pub.Dropped() + pub.Throttled(); got != slots {
		return leg, fmt.Errorf("conservation violated: %d accounted of %d fanout slots "+
			"(delivered f=%d s=%d, recv-dropped f=%d s=%d, pub-dropped %d, throttled %d)",
			got, slots, fast.sub.Received(), slow.sub.Received(), fast.sub.AppDrops(), slow.sub.AppDrops(),
			pub.Dropped(), pub.Throttled())
	}

	cont, err := summarize([]*topicSub{fast})
	if err != nil {
		return leg, fmt.Errorf("contended phase: %w", err)
	}
	leg.contendP99 = cont.P99
	leg.slowDrops = slow.sub.Drops()
	leg.slowRecv = slow.sub.Received()
	leg.throttled = pub.Throttled()
	return leg, nil
}
