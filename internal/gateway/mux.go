package gateway

import (
	"fmt"
	"sync"

	"flipc/internal/core"
	"flipc/internal/metrics"
	"flipc/internal/msglib"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// Config tunes a Mux.
type Config struct {
	// Name is the gateway's cluster-unique name; client presence keys
	// are "<Name>/<client id>" (required).
	Name string
	// Dir is the membership plane: patterns, presence, and the topics
	// clients publish to (required).
	Dir topic.Directory
	// InboxBuffers sizes each class inbox's posted-buffer pool and
	// queue depth (default 128). These three pools are the gateway's
	// entire
	// receive-side footprint on the fabric, independent of how many
	// clients connect.
	InboxBuffers int
	// ClientQueue bounds each client's per-class outbound frame queue
	// (default 64). Overflow drops frames, counted per client — one
	// slow client backs up only its own queue, never the shared inbox.
	ClientQueue int
	// ThrottleAt marks a client throttled after this many consecutive
	// overflow drops on one lane (default 16); the throttle clears on
	// the first successful enqueue. Drops while throttled are counted
	// in the client's Throttled ledger, mirroring the publisher-side
	// credit discipline.
	ThrottleAt int
	// MaxPublishers bounds the per-topic publisher cache (default 64).
	// Evictions free the publisher's endpoint; a topic published again
	// later gets a fresh one.
	MaxPublishers int
	// Registry receives flipc_gw_* instruments (optional).
	Registry *metrics.Registry
}

// NumClasses is the number of priority lanes a gateway terminates.
const NumClasses = 3

// pubWindow bounds each cached publisher's outstanding fanout frames.
const pubWindow = 64

func (c *Config) fill() error {
	if c.Name == "" {
		return fmt.Errorf("gateway: config needs a Name")
	}
	if len(c.Name) > MaxClientName {
		return fmt.Errorf("gateway: name %q too long", c.Name)
	}
	if c.Dir == nil {
		return fmt.Errorf("gateway: config needs a Dir")
	}
	if c.InboxBuffers <= 0 {
		c.InboxBuffers = 128
	}
	if c.ClientQueue <= 0 {
		c.ClientQueue = 64
	}
	if c.ThrottleAt <= 0 {
		c.ThrottleAt = 16
	}
	if c.MaxPublishers <= 0 {
		c.MaxPublishers = 64
	}
	return nil
}

// Client is one attached client session. The TCP front owns the
// socket; the Mux owns everything else. All methods are driven through
// the Mux.
type Client struct {
	id   uint64
	name string // hello identity ("" until hello)
	key  string // presence key (gateway-scoped)

	mu     sync.Mutex
	q      [NumClasses]frameQueue
	closed bool
	kick   chan struct{}

	// Ledgers (guarded by mu): the client's side of the conservation
	// law matched == delivered + dropped + throttled (+ still queued).
	delivered uint64 // frames handed to the writer (PopOut)
	dropped   uint64 // frames lost to queue overflow
	throttled uint64 // overflow drops while marked throttled
	overflow  [NumClasses]int
	isThrott  bool

	subs map[subKey]struct{} // this client's live subscriptions
}

// frameQueue is a bounded FIFO of encoded frames.
type frameQueue struct {
	buf  [][]byte
	head int
}

func (q *frameQueue) len() int { return len(q.buf) - q.head }

func (q *frameQueue) push(b []byte, max int) bool {
	if q.len() >= max {
		return false
	}
	if q.head > 0 && q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.buf = append(q.buf, b)
	return true
}

func (q *frameQueue) pop() ([]byte, bool) {
	if q.len() == 0 {
		return nil, false
	}
	b := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return b, true
}

// subKey is one (lane, pattern) subscription of one client.
type subKey struct {
	lane int
	pat  string
}

// patRef refcounts one (lane, pattern) across clients; the registry
// subscription exists while the count is positive.
type patRef struct {
	count int
}

// pubEntry is one cached per-topic publisher.
type pubEntry struct {
	p       *topic.Publisher
	class   topic.Class
	lastUse uint64 // housekeeping tick of last publish
}

// Mux is the gateway core: transport-agnostic and poll-driven, so the
// TCP front (server.go), the benchmark, and the virtual-time sim drive
// the same code. All fabric receive traffic lands on NumClasses shared
// inboxes subscribed through the registry's pattern plane, so every
// arriving frame is topic-enveloped (see topic/envelope.go).
type Mux struct {
	cfg Config
	d   *core.Domain
	dir topic.Directory
	in  [NumClasses]*msglib.Inbox

	mu      sync.Mutex
	clients map[uint64]*Client
	nextID  uint64
	subs    [NumClasses]*nameservice.PatternIndex // pattern -> client ids, per lane
	refs    [NumClasses]map[string]*patRef
	pubs    map[string]*pubEntry
	tick    uint64

	// Gateway-level ledgers (guarded by mu).
	received  uint64 // enveloped frames drained off the class inboxes
	matched   uint64 // (frame, client) pairs matched by the index
	unmatched uint64 // frames matching no client (pattern lease outliving clients)
	badFrames uint64 // non-enveloped or unparseable inbox frames
	pubOK     uint64 // client publishes accepted upstream
	pubErrs   uint64 // client publishes refused
	lastDrops [NumClasses]uint64
	saturated [NumClasses]bool
	renewErrs uint64

	mConns, mThrottled, mPresence, mPatterns *metrics.Gauge
	mDelivered, mDropped, mThrottledDrops    *metrics.Counter
	mMatched, mUnmatched, mBad               *metrics.Counter
	mPubOK, mPubErrs                         *metrics.Counter
}

// NewMux creates the gateway core on domain d: three class inboxes and
// empty client state. The caller drives Pump (delivery), Housekeeping
// (lease renewal), and the client frame path.
func NewMux(d *core.Domain, cfg Config) (*Mux, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	m := &Mux{cfg: cfg, d: d, dir: cfg.Dir, clients: make(map[uint64]*Client), pubs: make(map[string]*pubEntry)}
	for lane := 0; lane < NumClasses; lane++ {
		in, err := msglib.NewInbox(d, cfg.InboxBuffers, cfg.InboxBuffers)
		if err != nil {
			return nil, fmt.Errorf("gateway: class %d inbox: %w", lane, err)
		}
		m.in[lane] = in
		m.subs[lane] = nameservice.NewPatternIndex()
		m.refs[lane] = make(map[string]*patRef)
	}
	if cfg.Registry != nil {
		m.instrument(cfg.Registry)
	}
	return m, nil
}

func (m *Mux) instrument(reg *metrics.Registry) {
	gw := m.cfg.Name
	m.mConns = reg.Gauge(metrics.Name("flipc_gw_conns", "gw", gw))
	m.mThrottled = reg.Gauge(metrics.Name("flipc_gw_throttled_clients", "gw", gw))
	m.mPresence = reg.Gauge(metrics.Name("flipc_gw_presence_leases", "gw", gw))
	m.mPatterns = reg.Gauge(metrics.Name("flipc_gw_patterns", "gw", gw))
	m.mDelivered = reg.Counter(metrics.Name("flipc_gw_delivered_total", "gw", gw))
	m.mDropped = reg.Counter(metrics.Name("flipc_gw_dropped_total", "gw", gw))
	m.mThrottledDrops = reg.Counter(metrics.Name("flipc_gw_throttled_total", "gw", gw))
	m.mMatched = reg.Counter(metrics.Name("flipc_gw_matched_total", "gw", gw))
	m.mUnmatched = reg.Counter(metrics.Name("flipc_gw_unmatched_total", "gw", gw))
	m.mBad = reg.Counter(metrics.Name("flipc_gw_bad_frames_total", "gw", gw))
	m.mPubOK = reg.Counter(metrics.Name("flipc_gw_publish_total", "gw", gw))
	m.mPubErrs = reg.Counter(metrics.Name("flipc_gw_publish_errors_total", "gw", gw))
	for lane := 0; lane < NumClasses; lane++ {
		in := m.in[lane]
		reg.Func(metrics.Name("flipc_gw_inbox_drops", "gw", gw, "class", topic.Class(lane).String()),
			func() float64 { return float64(in.Drops()) })
	}
}

// Attach admits a new client session (pre-hello). The TCP front calls
// it once per accepted connection.
func (m *Mux) Attach() *Client {
	c := &Client{kick: make(chan struct{}, 1), subs: make(map[subKey]struct{})}
	m.mu.Lock()
	m.nextID++
	c.id = m.nextID
	m.clients[c.id] = c
	n := len(m.clients)
	m.mu.Unlock()
	if m.mConns != nil {
		m.mConns.Set(float64(n))
	}
	return c
}

// Detach removes a client: subscriptions unreferenced (registry
// unsubscribe when a pattern's last client leaves), presence lease
// dropped, queue abandoned. Clean shutdown only — a cold-dead gateway
// never calls it, which is exactly the case the presence lease sweep
// covers.
func (m *Mux) Detach(c *Client) {
	m.mu.Lock()
	delete(m.clients, c.id)
	for sk := range c.subs {
		m.unrefLocked(c, sk)
	}
	key := c.key
	n := len(m.clients)
	m.mu.Unlock()

	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.signal()

	if key != "" {
		// Best effort: lease expiry covers a failed drop.
		_ = m.dir.DropPresence(key)
	}
	if m.mConns != nil {
		m.mConns.Set(float64(n))
	}
}

// unrefLocked drops one (lane, pattern) reference; the registry
// subscription is released when the last client leaves. Caller holds
// m.mu.
func (m *Mux) unrefLocked(c *Client, sk subKey) {
	m.subs[sk.lane].Remove(sk.pat, c.id)
	ref := m.refs[sk.lane][sk.pat]
	if ref == nil {
		return
	}
	ref.count--
	if ref.count > 0 {
		return
	}
	delete(m.refs[sk.lane], sk.pat)
	// Registry call outside the hot path would be nicer, but unref is
	// rare (client churn) and the Directory is required to be safe
	// under the Mux lock (Local, Remote and Sharded all are).
	_ = m.dir.UnsubscribePattern(sk.pat, m.in[sk.lane].Addr())
}

// signal kicks the client's writer (non-blocking).
func (c *Client) signal() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Kick returns the channel the writer waits on: a token arrives when
// the client has frames to pop (or was closed).
func (c *Client) Kick() <-chan struct{} { return c.kick }

// Closed reports whether the client was detached.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// ID returns the session id (diagnostics).
func (c *Client) ID() uint64 { return c.id }

// Name returns the hello identity ("" before hello).
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name
}

// Ledgers returns the client's delivery accounting: frames popped to
// the writer, dropped on overflow, and dropped while throttled.
func (c *Client) Ledgers() (delivered, dropped, throttled uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered, c.dropped, c.throttled
}

// Queued returns the client's total queued frames.
func (c *Client) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for lane := range c.q {
		n += c.q[lane].len()
	}
	return n
}

// Throttled reports whether the client is currently marked throttled.
func (c *Client) Throttled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.isThrott
}

// PopOut pops the next encoded frame for the client's writer, control
// lane first. The returned slice is owned by the caller. Only deliver
// frames feed the delivered ledger — protocol responses (err, pong)
// are outside the conservation law.
func (c *Client) PopOut() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for lane := NumClasses - 1; lane >= 0; lane-- {
		if b, ok := c.q[lane].pop(); ok {
			if len(b) > frameHeaderBytes && b[frameHeaderBytes] == OpDeliver {
				c.delivered++
			}
			return b, true
		}
	}
	return nil, false
}

// enqueue queues an encoded frame on one lane, applying the overflow /
// throttle discipline. Returns whether the frame entered the queue.
// The drop/throttle ledgers track deliver frames only (protocol
// responses are outside the conservation law), recognized by the op
// byte just past the length prefix.
func (m *Mux) enqueue(c *Client, lane int, frame []byte) bool {
	isDeliver := len(frame) > frameHeaderBytes && frame[frameHeaderBytes] == OpDeliver
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if c.q[lane].push(frame, m.cfg.ClientQueue) {
		c.overflow[lane] = 0
		c.isThrott = false
		c.mu.Unlock()
		c.signal()
		return true
	}
	c.overflow[lane]++
	if c.overflow[lane] >= m.cfg.ThrottleAt {
		c.isThrott = true
	}
	throttledNow := c.isThrott
	if isDeliver {
		if throttledNow {
			c.throttled++
		} else {
			c.dropped++
		}
	}
	c.mu.Unlock()
	if !isDeliver {
		return false
	}
	if throttledNow {
		if m.mThrottledDrops != nil {
			m.mThrottledDrops.Inc()
		}
	} else if m.mDropped != nil {
		m.mDropped.Inc()
	}
	return false
}

// Pump drains every class inbox, matching each enveloped frame against
// the lane's pattern index and fanning it into the matching clients'
// queues. Returns the number of inbox frames processed. Drive it from
// a dedicated goroutine (TCP front) or a virtual-time ticker (sim).
func (m *Mux) Pump() int {
	done := 0
	for lane := NumClasses - 1; lane >= 0; lane-- {
		for {
			payload, flags, ok := m.in[lane].Receive()
			if !ok {
				break
			}
			done++
			m.deliver(lane, payload, flags)
		}
	}
	return done
}

func (m *Mux) deliver(lane int, payload []byte, flags uint8) {
	m.mu.Lock()
	m.received++
	name, body, ok := topic.OpenEnvelope(payload)
	if !ok {
		m.badFrames++
		m.mu.Unlock()
		if m.mBad != nil {
			m.mBad.Inc()
		}
		return
	}
	var targets []*Client
	m.subs[lane].Match(name, func(key uint64) {
		if c := m.clients[key]; c != nil {
			for _, t := range targets {
				if t == c {
					return
				}
			}
			targets = append(targets, c)
		}
	})
	if len(targets) == 0 {
		m.unmatched++
		m.mu.Unlock()
		if m.mUnmatched != nil {
			m.mUnmatched.Inc()
		}
		return
	}
	m.matched += uint64(len(targets))
	m.mu.Unlock()
	if m.mMatched != nil {
		m.mMatched.Add(uint64(len(targets)))
	}
	frame, err := AppendFrame(nil, Frame{
		Op:      OpDeliver,
		Class:   uint8(topic.ClassFromFlags(flags)),
		Name:    name,
		Payload: body,
	})
	if err != nil {
		m.mu.Lock()
		m.badFrames++
		m.matched -= uint64(len(targets))
		m.mu.Unlock()
		return
	}
	delivered := 0
	for _, c := range targets {
		// The encoded frame is shared read-only across the queues.
		if m.enqueue(c, lane, frame) {
			delivered++
		}
	}
	if m.mDelivered != nil {
		m.mDelivered.Add(uint64(delivered))
	}
}

// HandleFrame processes one client-protocol frame body from c,
// enqueueing any responses on c's queues. Safe for concurrent calls on
// distinct clients (the TCP front runs one reader per connection).
func (m *Mux) HandleFrame(c *Client, body []byte) {
	f, err := DecodeBody(body)
	if err != nil {
		m.sendErr(c, ErrCodeBadFrame, "unparseable frame")
		return
	}
	switch f.Op {
	case OpHello:
		m.handleHello(c, f)
	case OpPing:
		echo := append([]byte(nil), f.Payload...)
		if frame, err := AppendFrame(nil, Frame{Op: OpPong, Payload: echo}); err == nil {
			m.enqueue(c, int(topic.Control), frame)
		}
	case OpSub:
		m.handleSub(c, f)
	case OpUnsub:
		m.handleUnsub(c, f)
	case OpPub:
		m.handlePub(c, f)
	default:
		m.sendErr(c, ErrCodeBadFrame, "unexpected op")
	}
}

func (m *Mux) sendErr(c *Client, code byte, msg string) {
	frame, err := AppendFrame(nil, Frame{Op: OpErr, Code: code, Payload: []byte(msg)})
	if err != nil {
		return
	}
	m.enqueue(c, int(topic.Control), frame)
}

// hello names the client and takes out its presence lease.
func (m *Mux) handleHello(c *Client, f Frame) {
	key := m.cfg.Name + "/" + f.Name
	if len(key) > nameservice.MaxPresenceName {
		m.sendErr(c, ErrCodeBadName, "client id too long")
		return
	}
	c.mu.Lock()
	c.name = f.Name
	c.key = key
	c.mu.Unlock()
	if err := m.dir.UpsertPresence(key, m.cfg.Name, m.in[int(topic.Control)].Addr()); err != nil {
		m.sendErr(c, ErrCodeBadName, "presence refused")
	}
}

// helloed reports whether the client has identified itself.
func (c *Client) helloed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name != ""
}

func (m *Mux) handleSub(c *Client, f Frame) {
	if !c.helloed() {
		m.sendErr(c, ErrCodeNoHello, "hello first")
		return
	}
	lane := int(f.Class)
	if lane >= NumClasses {
		m.sendErr(c, ErrCodeBadName, "bad class lane")
		return
	}
	if err := nameservice.ValidPattern(f.Name); err != nil {
		m.sendErr(c, ErrCodeBadName, "invalid pattern")
		return
	}
	sk := subKey{lane: lane, pat: f.Name}
	m.mu.Lock()
	if _, dup := c.subs[sk]; dup {
		m.mu.Unlock()
		return
	}
	c.subs[sk] = struct{}{}
	m.subs[lane].Add(f.Name, c.id)
	ref := m.refs[lane][f.Name]
	first := ref == nil
	if first {
		ref = &patRef{}
		m.refs[lane][f.Name] = ref
	}
	ref.count++
	m.mu.Unlock()
	if first {
		if err := m.dir.SubscribePattern(f.Name, m.in[lane].Addr()); err != nil {
			// Roll back: the client must not believe it is subscribed.
			m.mu.Lock()
			delete(c.subs, sk)
			m.subs[lane].Remove(f.Name, c.id)
			if ref.count--; ref.count <= 0 {
				delete(m.refs[lane], f.Name)
			}
			m.mu.Unlock()
			m.sendErr(c, ErrCodeBadName, "registry refused pattern")
		}
	}
}

func (m *Mux) handleUnsub(c *Client, f Frame) {
	if !c.helloed() {
		m.sendErr(c, ErrCodeNoHello, "hello first")
		return
	}
	m.mu.Lock()
	for lane := 0; lane < NumClasses; lane++ {
		sk := subKey{lane: lane, pat: f.Name}
		if _, ok := c.subs[sk]; ok {
			delete(c.subs, sk)
			m.unrefLocked(c, sk)
		}
	}
	m.mu.Unlock()
}

func (m *Mux) handlePub(c *Client, f Frame) {
	if !c.helloed() {
		m.sendErr(c, ErrCodeNoHello, "hello first")
		return
	}
	class := topic.Class(f.Class)
	if !class.Valid() || class.IsDurable() {
		m.sendErr(c, ErrCodeBadName, "bad publish class")
		return
	}
	if err := nameservice.ValidTopicName(f.Name); err != nil || f.Name == "" || f.Name[0] == '!' {
		m.sendErr(c, ErrCodeBadName, "invalid topic")
		return
	}
	m.mu.Lock()
	p, err := m.publisherLocked(f.Name, class)
	if err != nil {
		m.pubErrs++
		m.mu.Unlock()
		if m.mPubErrs != nil {
			m.mPubErrs.Inc()
		}
		m.sendErr(c, ErrCodePublish, "publisher unavailable")
		return
	}
	_, err = p.Publish(f.Payload)
	if err != nil {
		m.pubErrs++
	} else {
		m.pubOK++
	}
	m.mu.Unlock()
	if err != nil {
		if m.mPubErrs != nil {
			m.mPubErrs.Inc()
		}
		m.sendErr(c, ErrCodePublish, "publish failed")
		return
	}
	if m.mPubOK != nil {
		m.mPubOK.Inc()
	}
}

// publisherLocked returns the cached publisher for topicName, creating
// (and, at the cache bound, evicting the least-recently-used entry and
// freeing its endpoint) as needed. Caller holds m.mu.
func (m *Mux) publisherLocked(topicName string, class topic.Class) (*topic.Publisher, error) {
	if e := m.pubs[topicName]; e != nil {
		e.lastUse = m.tick
		return e.p, nil
	}
	if len(m.pubs) >= m.cfg.MaxPublishers {
		var lruName string
		var lru *pubEntry
		for name, e := range m.pubs {
			if lru == nil || e.lastUse < lru.lastUse {
				lruName, lru = name, e
			}
		}
		if lru != nil {
			_ = lru.p.Outbox().Endpoint().Free()
			delete(m.pubs, lruName)
		}
	}
	p, err := topic.NewPublisher(m.d, m.dir, topic.PublisherConfig{
		Topic:  topicName,
		Class:  class,
		Window: pubWindow,
	})
	if err != nil {
		return nil, err
	}
	m.pubs[topicName] = &pubEntry{p: p, class: class, lastUse: m.tick}
	return p, nil
}

// Housekeeping runs one lease/health tick: renews every live pattern
// subscription and presence lease, refreshes cached publisher plans,
// and recomputes per-lane saturation from the inbox drop deltas. Call
// it on the registry's lease cadence. Returns the number of renewal
// errors (also accumulated for Health).
func (m *Mux) Housekeeping() int {
	m.mu.Lock()
	m.tick++
	type renewal struct {
		lane int
		pat  string
	}
	var pats []renewal
	for lane := 0; lane < NumClasses; lane++ {
		for pat := range m.refs[lane] {
			pats = append(pats, renewal{lane, pat})
		}
	}
	var keys []string
	for _, c := range m.clients {
		c.mu.Lock()
		if c.key != "" {
			keys = append(keys, c.key)
		}
		c.mu.Unlock()
	}
	var planRefresh []*topic.Publisher
	for _, e := range m.pubs {
		planRefresh = append(planRefresh, e.p)
	}
	for lane := 0; lane < NumClasses; lane++ {
		drops := m.in[lane].Drops()
		m.saturated[lane] = drops > m.lastDrops[lane]
		m.lastDrops[lane] = drops
	}
	ctlAddr := m.in[int(topic.Control)].Addr()
	m.mu.Unlock()

	errs := 0
	for _, r := range pats {
		if err := m.dir.SubscribePattern(r.pat, m.in[r.lane].Addr()); err != nil {
			errs++
		}
	}
	for _, k := range keys {
		if err := m.dir.UpsertPresence(k, m.cfg.Name, ctlAddr); err != nil {
			errs++
		}
	}
	for _, p := range planRefresh {
		_ = p.Refresh()
	}

	m.mu.Lock()
	m.renewErrs += uint64(errs)
	m.mu.Unlock()
	m.updateGauges()
	return errs
}

func (m *Mux) updateGauges() {
	if m.mPatterns == nil {
		return
	}
	m.mu.Lock()
	pats := 0
	for lane := 0; lane < NumClasses; lane++ {
		pats += len(m.refs[lane])
	}
	leases, throttled := 0, 0
	for _, c := range m.clients {
		c.mu.Lock()
		if c.key != "" {
			leases++
		}
		if c.isThrott {
			throttled++
		}
		c.mu.Unlock()
	}
	m.mu.Unlock()
	m.mPatterns.Set(float64(pats))
	m.mPresence.Set(float64(leases))
	m.mThrottled.Set(float64(throttled))
}

// ClassHealth is one priority lane's health snapshot.
type ClassHealth struct {
	Class      string `json:"class"`
	QueueDepth int    `json:"queue_depth"` // summed client queue lengths on this lane
	InboxDrops uint64 `json:"inbox_drops"` // frames lost at the shared class inbox
	Saturated  bool   `json:"saturated"`   // inbox dropped frames since the last tick
}

// Health is the gateway's health snapshot (obs /healthz and flipcstat).
type Health struct {
	Name      string                  `json:"name"`
	Conns     int                     `json:"conns"`
	Presence  int                     `json:"presence_leases"`
	Patterns  int                     `json:"patterns"`
	Throttled int                     `json:"throttled_clients"`
	RenewErrs uint64                  `json:"renew_errors"`
	PerClass  [NumClasses]ClassHealth `json:"per_class"`
}

// Degraded reports whether any lane is saturated — the /healthz
// degradation condition: the shared inbox is dropping, so clients are
// losing frames before per-client accounting can even see them.
func (h Health) Degraded() bool {
	for _, ch := range h.PerClass {
		if ch.Saturated {
			return true
		}
	}
	return false
}

// Health builds the gateway's health snapshot.
func (m *Mux) Health() Health {
	m.mu.Lock()
	h := Health{Name: m.cfg.Name, Conns: len(m.clients), RenewErrs: m.renewErrs}
	for lane := 0; lane < NumClasses; lane++ {
		h.Patterns += len(m.refs[lane])
		h.PerClass[lane] = ClassHealth{
			Class:      topic.Class(lane).String(),
			InboxDrops: m.in[lane].Drops(),
			Saturated:  m.saturated[lane],
		}
	}
	clients := make([]*Client, 0, len(m.clients))
	for _, c := range m.clients {
		clients = append(clients, c)
	}
	m.mu.Unlock()
	for _, c := range clients {
		c.mu.Lock()
		if c.key != "" {
			h.Presence++
		}
		if c.isThrott {
			h.Throttled++
		}
		for lane := 0; lane < NumClasses; lane++ {
			h.PerClass[lane].QueueDepth += c.q[lane].len()
		}
		c.mu.Unlock()
	}
	return h
}

// Stats is the Mux's cumulative accounting (conservation checks).
type Stats struct {
	Received  uint64 // enveloped frames drained off the class inboxes
	Matched   uint64 // (frame, client) pairs matched
	Unmatched uint64 // frames matching no attached client
	BadFrames uint64 // non-enveloped inbox frames
	PubOK     uint64 // client publishes accepted
	PubErrs   uint64 // client publishes refused
}

// Stats returns the cumulative counters.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Received:  m.received,
		Matched:   m.matched,
		Unmatched: m.unmatched,
		BadFrames: m.badFrames,
		PubOK:     m.pubOK,
		PubErrs:   m.pubErrs,
	}
}

// InboxDrops returns one lane's shared-inbox drop count.
func (m *Mux) InboxDrops(lane int) uint64 { return m.in[lane].Drops() }

// Clients returns the attached clients (diagnostics and the sim's
// per-client conservation sweep).
func (m *Mux) Clients() []*Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Client, 0, len(m.clients))
	for _, c := range m.clients {
		out = append(out, c)
	}
	return out
}
