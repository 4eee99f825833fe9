// Package topic provides cluster-wide publish/subscribe with
// prioritized fanout on top of FLIPC's point-to-point message cycle.
//
// A topic is a well-known name mapped — through the nameservice topic
// registry — to the set of subscriber endpoint addresses. A Publisher
// fans one Publish out to every subscriber with the protocol's
// optimistic semantics intact: sends never block, and every message a
// slow subscriber misses is counted, either at the publisher (outbox
// backpressure, accounted per subscriber) or at the subscriber's
// endpoint (the unposted-receiver discard rule). Loss is never silent.
//
// Topics carry a priority class (Control > Normal > Bulk) that is
// honored at every layer a message crosses:
//
//   - the publisher's send endpoint takes the class's transport
//     priority, so the engine's PolicyPriority ordering and its
//     ReservedQuantum low-priority cap apply per class;
//   - the class rides the wire in the header's priority flag bits
//     (wire.PriorityMask);
//   - blocking receives wait at the class's rtsched priority, so a
//     control-topic subscriber preempts bulk consumers at the
//     real-time semaphore.
//
// Fanout is peer-batched: the cached fanout plan is ordered by
// subscriber address, which groups subscribers by node, so a transport
// with the interconnect.BatchFlusher capability (nettrans BatchWrites)
// coalesces a fanout burst into one write per peer node.
//
// Flow control is per topic: each Subscriber owns a private posted
// buffer pool (its Inbox), so a hot topic exhausts its own credit, not
// its neighbors'; each Publisher's outbox pool bounds the topic's
// outstanding fanout frames. Size the outbox with PublisherWindow,
// which applies internal/flowctl's static sizing rule.
package topic

import (
	"errors"
	"fmt"
	"time"

	"flipc/internal/core"
	"flipc/internal/flowctl"
	"flipc/internal/nameservice"
	"flipc/internal/wire"
)

// Class is a topic's priority class. Higher classes are delivered
// ahead of lower ones wherever the stack makes an ordering decision.
type Class uint8

const (
	// Bulk is the background class: large fanouts, no latency bound.
	Bulk Class = 0
	// Normal is the default class.
	Normal Class = 1
	// Control is the expedited class for small, latency-critical
	// messages (mode changes, alarms); its sends bypass bulk backlogs
	// via the engine's priority policy and quantum reservation.
	Control Class = 2

	// Durable is an attribute bit carried alongside the priority level
	// in the directory's class byte, not a priority level itself: a
	// durable topic's publishers journal every payload to a duralog
	// and its subscribers resume from per-name replay cursors (see
	// durable.go). Every party on a durable topic must declare the
	// same class byte — mixing durable and non-durable declarations
	// churns the topic generation on each lease renewal — so combine
	// it explicitly (Normal | Durable). Ordering decisions mask it
	// out via Base.
	Durable Class = 0x80
)

// Base strips attribute bits, leaving the priority level.
func (c Class) Base() Class { return c &^ Durable }

// IsDurable reports whether the class carries the durability
// attribute.
func (c Class) IsDurable() bool { return c&Durable != 0 }

// String names the class.
func (c Class) String() string {
	name := ""
	switch c.Base() {
	case Bulk:
		name = "bulk"
	case Normal:
		name = "normal"
	case Control:
		name = "control"
	default:
		name = fmt.Sprintf("class(%d)", uint8(c.Base()))
	}
	if c.IsDurable() {
		name += "+durable"
	}
	return name
}

// Valid reports whether c is a defined class (with or without
// attribute bits).
func (c Class) Valid() bool { return c.Base() <= Control }

// EndpointPriority maps the class to the transport priority of the
// publisher's send endpoint — the value engine.PolicyPriority orders by
// and engine.Config.ReservePriority thresholds against (Bulk stays at
// 0, so it is the class a quantum reservation caps).
func (c Class) EndpointPriority() uint8 {
	switch c.Base() {
	case Control:
		return 5
	case Normal:
		return 2
	}
	return 0
}

// SchedPriority maps the class to the rtsched priority a blocking
// receive waits at (higher runs first).
func (c Class) SchedPriority() core.Priority {
	switch c.Base() {
	case Control:
		return 16
	case Normal:
		return 8
	}
	return 1
}

// Flags returns the class's wire-header priority bits (the paper's
// prioritized-transport extension): receivers and taps can classify a
// frame without consulting the directory.
func (c Class) Flags() uint8 { return c.EndpointPriority() & wire.PriorityMask }

// ClassFromFlags recovers the priority class from a received
// message's flags. The wire never carries the Durable attribute —
// durability is a directory and endpoint property, so the result is
// always a base class.
func ClassFromFlags(flags uint8) Class {
	switch uint8(wire.Priority(flags)) {
	case Control.EndpointPriority():
		return Control
	case Normal.EndpointPriority():
		return Normal
	}
	return Bulk
}

// Directory is the membership view publishers read and subscribers
// register through. Implementations: LocalDirectory over an in-process
// nameservice.TopicRegistry, RemoteDirectory over the in-band
// nameservice client. Snapshot of a topic nobody has declared returns
// an empty membership, not an error — publishing into the void is a
// cheap no-op, matching the optimistic protocol.
type Directory interface {
	Subscribe(topic string, addr core.Addr, class Class) error
	Unsubscribe(topic string, addr core.Addr) error
	Snapshot(topic string) (nameservice.TopicSnapshot, error)
	// AckCursor registers a durable subscriber's replay cursor (by its
	// stable name, not its address) with the registry, so the cursor
	// survives registry failover alongside the membership. Max-merged:
	// a stale acknowledgment never regresses the stored cursor.
	AckCursor(topic, sub string, seq uint64) error
}

// EdgeDirectory extends Directory with the edge plane's membership
// ops: wildcard pattern subscriptions and client presence leases (see
// internal/nameservice's pattern grammar and lease discipline). Every
// Directory implementation in this package also implements
// EdgeDirectory; the split interface exists so code that only fans out
// keeps the narrower dependency.
type EdgeDirectory interface {
	Directory
	// SubscribePattern adds (or renews) addr's subscription to every
	// topic matching pat. Pattern subscribers receive enveloped frames
	// (see envelope.go) and must not also subscribe exactly.
	SubscribePattern(pat string, addr core.Addr) error
	// UnsubscribePattern removes addr's subscription to pat.
	UnsubscribePattern(pat string, addr core.Addr) error
	// UpsertPresence records (or renews) client key's presence lease at
	// gateway gw, reachable through addr.
	UpsertPresence(key, gw string, addr core.Addr) error
	// DropPresence removes client key's presence lease.
	DropPresence(key string) error
}

// LocalDirectory adapts an in-process TopicRegistry (single-node
// deployments, tests, and the registry daemon itself).
type LocalDirectory struct {
	R *nameservice.TopicRegistry
}

// Subscribe implements Directory.
func (l LocalDirectory) Subscribe(topic string, addr core.Addr, class Class) error {
	if err := l.R.Declare(topic, uint8(class)); err != nil {
		return err
	}
	return l.R.Subscribe(topic, addr)
}

// Unsubscribe implements Directory.
func (l LocalDirectory) Unsubscribe(topic string, addr core.Addr) error {
	l.R.Unsubscribe(topic, addr)
	return nil
}

// Snapshot implements Directory.
func (l LocalDirectory) Snapshot(topic string) (nameservice.TopicSnapshot, error) {
	snap, _ := l.R.Snapshot(topic)
	return snap, nil
}

// AckCursor implements Directory.
func (l LocalDirectory) AckCursor(topic, sub string, seq uint64) error {
	return l.R.AckCursor(topic, sub, seq)
}

// SubscribePattern implements EdgeDirectory.
func (l LocalDirectory) SubscribePattern(pat string, addr core.Addr) error {
	return l.R.SubscribePattern(pat, addr)
}

// UnsubscribePattern implements EdgeDirectory.
func (l LocalDirectory) UnsubscribePattern(pat string, addr core.Addr) error {
	l.R.UnsubscribePattern(pat, addr)
	return nil
}

// UpsertPresence implements EdgeDirectory.
func (l LocalDirectory) UpsertPresence(key, gw string, addr core.Addr) error {
	return l.R.UpsertPresence(key, gw, addr)
}

// DropPresence implements EdgeDirectory.
func (l LocalDirectory) DropPresence(key string) error {
	l.R.DropPresence(key)
	return nil
}

// RemoteDirectory adapts the nameservice client: membership ops travel
// in-band as FLIPC messages to the cluster's registry node.
type RemoteDirectory struct {
	C *nameservice.Client
	// Timeout bounds each directory round trip (default 2s).
	Timeout time.Duration
}

func (r RemoteDirectory) timeout() time.Duration {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return 2 * time.Second
}

// Subscribe implements Directory.
func (r RemoteDirectory) Subscribe(topic string, addr core.Addr, class Class) error {
	return r.C.Subscribe(topic, addr, uint8(class), r.timeout())
}

// Unsubscribe implements Directory.
func (r RemoteDirectory) Unsubscribe(topic string, addr core.Addr) error {
	return r.C.Unsubscribe(topic, addr, r.timeout())
}

// Snapshot implements Directory. An undeclared topic reads as empty.
func (r RemoteDirectory) Snapshot(topic string) (nameservice.TopicSnapshot, error) {
	snap, err := r.C.TopicSnapshot(topic, r.timeout())
	if errors.Is(err, nameservice.ErrNotFound) {
		return nameservice.TopicSnapshot{Name: topic}, nil
	}
	return snap, err
}

// AckCursor implements Directory.
func (r RemoteDirectory) AckCursor(topic, sub string, seq uint64) error {
	return r.C.AckCursor(topic, sub, seq, r.timeout())
}

// SubscribePattern implements EdgeDirectory.
func (r RemoteDirectory) SubscribePattern(pat string, addr core.Addr) error {
	return r.C.SubscribePattern(pat, addr, r.timeout())
}

// UnsubscribePattern implements EdgeDirectory.
func (r RemoteDirectory) UnsubscribePattern(pat string, addr core.Addr) error {
	return r.C.UnsubscribePattern(pat, addr, r.timeout())
}

// UpsertPresence implements EdgeDirectory.
func (r RemoteDirectory) UpsertPresence(key, gw string, addr core.Addr) error {
	return r.C.UpsertPresence(key, gw, addr, r.timeout())
}

// DropPresence implements EdgeDirectory.
func (r RemoteDirectory) DropPresence(key string) error {
	return r.C.DropPresence(key, r.timeout())
}

// PublisherWindow sizes a publisher's outbox pool — the topic's bound
// on outstanding fanout frames — as one fanout burst to subs
// subscribers with outstanding full bursts in flight (flowctl's RPC
// sizing rule with the roles transposed).
func PublisherWindow(subs, outstanding int) int {
	return flowctl.RPCBuffers(subs, outstanding)
}
