package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"flipc/internal/interconnect"
	"flipc/internal/wire"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; parent is the index of the enclosing span (-1 for a
// root) and xid the exchange or publish the call served (0 when the
// caller cannot know it, as on the engine's transport calls).
type span struct {
	name       string
	start, end int64
	parent     int32
	xid        uint32
}

// tracer keeps spans in a preallocated in-memory table and writes them
// out when the run ends. A nil *tracer records nothing, so untraced
// runs call the same code. Slots are claimed atomically, so the
// harness goroutines and the engine goroutines (through the transport
// wrapper) may record concurrently; the table is read only after they
// have all stopped.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// now returns nanoseconds since the epoch (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// open reserves a slot for a span whose children are recorded before
// it ends. It returns -1 when the table is full or t is nil.
func (t *tracer) open() int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// fill completes a slot reserved with open.
func (t *tracer) fill(slot int32, name string, start, end int64, parent int32, xid uint32) {
	if t == nil || slot < 0 {
		return
	}
	t.spans[slot] = span{name: name, start: start, end: end, parent: parent, xid: xid}
}

// record adds a finished leaf span.
func (t *tracer) record(name string, start, end int64, parent int32, xid uint32) {
	t.fill(t.open(), name, start, end, parent, xid)
}

// recorded returns the filled part of the table.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerOf names a span's layer: the part of its name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 || int(s.parent) >= len(spans) {
			continue
		}
		p := spans[s.parent]
		lo, hi := s.start, s.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.name == "" {
			continue // reserved but never filled
		}
		self := s.end - s.start - covered[i]
		if self < 0 {
			self = 0
		}
		out[layerOf(s.name)] += self
	}
	return out
}

// writeSpans writes the table as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		if s.name == "" {
			continue
		}
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"xid\":%d}\n",
			s.name, s.start, s.end, s.parent, s.xid)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedLayers returns m's keys in order.
func sortedLayers(m map[string]int64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// timedTransport times the messaging engine's calls into a transport.
// Only the engine goroutine calls it; the harness flips on between the
// start and end of the measured window and reads the counters after
// the domain is closed.
type timedTransport struct {
	tr     interconnect.Transport
	tc     *tracer
	prefix string // span and metric prefix: "nettrans" or "fabric"
	on     atomic.Bool

	trySend       *samples
	sends, refuse int64
	polls, hits   int64
	flush         *samples
	flushes       int64 // FlushSends calls with frames accepted since the last one
	flushFrames   int64 // frames accepted before those flushes
	sinceFlush    int64
}

// timedPeer, timedFlusher and timedPeerFlusher add the optional
// capabilities the engine type-asserts for, so the wrapper offers
// exactly what the wrapped transport offers.
type timedPeer struct {
	*timedTransport
	h interconnect.PeerStatusReporter
}

type timedFlusher struct {
	*timedTransport
	f interconnect.BatchFlusher
}

type timedPeerFlusher struct {
	*timedTransport
	h interconnect.PeerStatusReporter
	f interconnect.BatchFlusher
}

func (w timedPeer) PeerUp(dst wire.NodeID) bool        { return w.h.PeerUp(dst) }
func (w timedPeerFlusher) PeerUp(dst wire.NodeID) bool { return w.h.PeerUp(dst) }
func (w timedFlusher) FlushSends()                     { w.timedFlush(w.f) }
func (w timedPeerFlusher) FlushSends()                 { w.timedFlush(w.f) }

// wrapTransport returns tr behind a timing wrapper that implements
// PeerStatusReporter and BatchFlusher exactly when tr does, plus the
// wrapper itself for reading its counters.
func wrapTransport(tr interconnect.Transport, tc *tracer, prefix string) (interconnect.Transport, *timedTransport) {
	w := &timedTransport{tr: tr, tc: tc, prefix: prefix,
		trySend: newSamples(1 << 18), flush: newSamples(1 << 16)}
	h, isPeer := tr.(interconnect.PeerStatusReporter)
	f, isFlush := tr.(interconnect.BatchFlusher)
	switch {
	case isPeer && isFlush:
		return timedPeerFlusher{w, h, f}, w
	case isPeer:
		return timedPeer{w, h}, w
	case isFlush:
		return timedFlusher{w, f}, w
	}
	return w, w
}

func (w *timedTransport) LocalNode() wire.NodeID { return w.tr.LocalNode() }

func (w *timedTransport) TrySend(dst wire.NodeID, frame []byte) bool {
	if !w.on.Load() {
		return w.tr.TrySend(dst, frame)
	}
	t0 := time.Now()
	ok := w.tr.TrySend(dst, frame)
	d := time.Since(t0)
	w.sends++
	if ok {
		w.sinceFlush++
	} else {
		w.refuse++
	}
	w.trySend.add(int64(d))
	if w.tc != nil {
		s := int64(t0.Sub(w.tc.epoch))
		w.tc.record(w.prefix+".trysend", s, s+int64(d), -1, 0)
	}
	return ok
}

func (w *timedTransport) Poll() ([]byte, bool) {
	f, ok := w.tr.Poll()
	if w.on.Load() {
		w.polls++
		if ok {
			w.hits++
		}
	}
	return f, ok
}

func (w *timedTransport) timedFlush(f interconnect.BatchFlusher) {
	if !w.on.Load() || w.sinceFlush == 0 {
		f.FlushSends()
		return
	}
	t0 := time.Now()
	f.FlushSends()
	d := time.Since(t0)
	w.flushes++
	w.flushFrames += w.sinceFlush
	w.sinceFlush = 0
	w.flush.add(int64(d))
	if w.tc != nil {
		s := int64(t0.Sub(w.tc.epoch))
		w.tc.record(w.prefix+".flush", s, s+int64(d), -1, 0)
	}
}
