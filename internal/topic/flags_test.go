package topic

import (
	"testing"
	"time"

	"flipc/internal/interconnect"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// TestPublishFlagsMasksReservedBits feeds PublishFlags every reserved
// bit at once — the topic-control flag, forged priority bits, and the
// wire-internal trailer flags — and checks that none of them survive
// to the subscriber. Before the mask covered the priority field and
// trailer bits, a caller could forge a Bulk topic's frames into the
// Control class (jumping every priority queue) or, worse, set the
// control bit and have subscribers swallow the payload as a malformed
// credit frame.
func TestPublishFlagsMasksReservedBits(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	sub, err := NewSubscriber(subD, dir, "audit", Bulk, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(pubD, dir, PublisherConfig{Topic: "audit", Class: Bulk})
	if err != nil {
		t.Fatal(err)
	}

	forged := ctlFlag | wire.PriorityMask | wire.FlagStamped | wire.FlagChecksummed | wire.FlagUrgent
	res, err := pub.PublishFlags([]byte("payload"), forged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1 {
		t.Fatalf("Sent = %d, want 1", res.Sent)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		payload, flags, ok := sub.Receive()
		if ok {
			// FlagUrgent is an application bit and passes through; all
			// reserved bits are replaced by the publisher's class.
			if flags&ctlFlag != 0 {
				t.Fatalf("flags %#x: control bit leaked through PublishFlags", flags)
			}
			if got := ClassFromFlags(flags); got != Bulk {
				t.Fatalf("class forged: ClassFromFlags = %v, want Bulk (flags %#x)", got, flags)
			}
			if flags&wire.FlagUrgent == 0 {
				t.Fatalf("flags %#x: application Urgent bit was stripped", flags)
			}
			if string(payload) != "payload" {
				t.Fatalf("payload = %q", payload)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("message never delivered — a leaked control bit makes the subscriber swallow it")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscriberCtlDropSplit fills a subscriber's inbox and then lands
// both application and control frames on the full endpoint: Drops()
// counts every discard, CtlDrops() isolates the control-frame share,
// and AppDrops() is what closes the publisher-side conservation law
// (control frames are never charged to the publisher's ledgers).
func TestSubscriberCtlDropSplit(t *testing.T) {
	fabric := interconnect.NewFabric(1024)
	pubD := newDomain(t, fabric, 0)
	subD := newDomain(t, fabric, 1)
	dir := LocalDirectory{R: nameservice.NewTopicRegistry()}

	sub, err := NewSubscriber(subD, dir, "drops", Normal, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := msglib.NewOutbox(pubD, 32, 32)
	if err != nil {
		t.Fatal(err)
	}

	// Every accepted send lands on the endpoint: the first two fill its
	// posted buffers (nobody receives) and every later one is dropped.
	// Waiting for exactly that count, not a lower bound, keeps app frames
	// still queued in the outbox from satisfying a wait meant for the
	// control frames.
	const posted = 2
	var sent uint64
	deadline := time.Now().Add(5 * time.Second)
	settle := func() {
		t.Helper()
		for sub.Drops() != sent-posted {
			if time.Now().After(deadline) {
				t.Fatalf("drops = %d, want %d (%d sends accepted)", sub.Drops(), sent-posted, sent)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Saturate the posted buffers, then drive app frames into the full
	// endpoint until some are visibly dropped.
	for sub.Drops() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("app drops never materialized")
		}
		if err := out.Send(sub.Addr(), []byte("app")); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		sent++
	}
	settle()
	if got := sub.CtlDrops(); got != 0 {
		t.Fatalf("CtlDrops = %d before any control traffic", got)
	}
	if sub.AppDrops() != sub.Drops() {
		t.Fatalf("AppDrops = %d, want %d", sub.AppDrops(), sub.Drops())
	}

	// Now land control frames on the still-full endpoint.
	const ctlSends = 4
	for i := 0; i < ctlSends; i++ {
		for {
			if err := out.SendFlags(sub.Addr(), []byte("ctl"), ctlFlag); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("control send never accepted")
			}
			time.Sleep(time.Millisecond)
		}
		sent++
	}
	settle()

	// The split must account every control discard and the sum must hold.
	if got := sub.CtlDrops(); got != ctlSends {
		t.Fatalf("CtlDrops = %d, want %d", got, ctlSends)
	}
	if sub.AppDrops()+sub.CtlDrops() != sub.Drops() {
		t.Fatalf("split violates Drops: %d app + %d ctl != %d total",
			sub.AppDrops(), sub.CtlDrops(), sub.Drops())
	}
}
