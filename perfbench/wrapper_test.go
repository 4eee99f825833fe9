package main

import (
	"testing"

	"flipc/internal/interconnect"
	"flipc/internal/nettrans"
	"flipc/internal/wire"
)

type bareTr struct{ sends, polls int }

func (b *bareTr) TrySend(wire.NodeID, []byte) bool { b.sends++; return true }
func (b *bareTr) Poll() ([]byte, bool)             { b.polls++; return nil, false }
func (b *bareTr) LocalNode() wire.NodeID           { return 7 }

type peerTr struct {
	bareTr
	asked []wire.NodeID
}

func (p *peerTr) PeerUp(dst wire.NodeID) bool { p.asked = append(p.asked, dst); return dst == 3 }

type flushTr struct {
	bareTr
	flushes int
}

func (f *flushTr) FlushSends() { f.flushes++ }

type peerFlushTr struct {
	peerTr
	flushes int
}

func (f *peerFlushTr) FlushSends() { f.flushes++ }

func capabilities(tr interconnect.Transport) (peer, flush bool) {
	_, peer = tr.(interconnect.PeerStatusReporter)
	_, flush = tr.(interconnect.BatchFlusher)
	return
}

// The engine type-asserts for PeerStatusReporter and BatchFlusher; a
// wrapper that hid them would silently switch off peer-health
// accounting and write batching, and one that invented them would
// switch them on.
func TestWrapperOffersExactlyTheWrappedCapabilities(t *testing.T) {
	real, err := nettrans.ListenConfig(nettrans.Config{Node: 1, Addr: "127.0.0.1:0", MessageSize: msgSize, BatchWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	fabricPort, err := interconnect.NewFabric(16).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]interconnect.Transport{
		"bare": &bareTr{}, "peer": &peerTr{}, "flush": &flushTr{}, "peer+flush": &peerFlushTr{},
		"nettrans": real, "fabric": fabricPort,
	} {
		wantPeer, wantFlush := capabilities(tr)
		w, _ := wrapTransport(tr, nil, "nettrans")
		if gotPeer, gotFlush := capabilities(w); gotPeer != wantPeer || gotFlush != wantFlush {
			t.Errorf("%s: wrapper has PeerUp=%v FlushSends=%v, wrapped has %v %v",
				name, gotPeer, gotFlush, wantPeer, wantFlush)
		}
	}
}

func TestWrapperForwardsAndCounts(t *testing.T) {
	inner := &peerFlushTr{}
	w, tw := wrapTransport(inner, newTracer(64), "nettrans")
	if !w.(interconnect.PeerStatusReporter).PeerUp(3) || len(inner.asked) != 1 {
		t.Error("PeerUp not forwarded")
	}
	w.TrySend(3, nil) // before the window opens: forwarded, not counted
	tw.on.Store(true)
	w.TrySend(3, nil)
	w.TrySend(3, nil)
	w.Poll()
	w.(interconnect.BatchFlusher).FlushSends()
	w.(interconnect.BatchFlusher).FlushSends() // nothing accepted since: not a flush
	tw.on.Store(false)
	if inner.sends != 3 || inner.polls != 1 || inner.flushes != 2 {
		t.Errorf("forwarded sends=%d polls=%d flushes=%d, want 3 1 2", inner.sends, inner.polls, inner.flushes)
	}
	if tw.sends != 2 || tw.polls != 1 || tw.hits != 0 || tw.flushes != 1 || tw.flushFrames != 2 {
		t.Errorf("counted sends=%d polls=%d hits=%d flushes=%d frames=%d, want 2 1 0 1 2",
			tw.sends, tw.polls, tw.hits, tw.flushes, tw.flushFrames)
	}
	if w.LocalNode() != 7 {
		t.Error("LocalNode not forwarded")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tc := newTracer(8)
	root := tc.open()
	tc.record("core.send", 10, 30, root, 1)
	tc.record("core.recv_wait", 30, 90, root, 1)
	tc.record("core.recv_wait", 95, 120, root, 1) // runs past the parent: clipped
	tc.fill(root, "harness.exchange", 0, 100, -1, 1)
	tc.record("nettrans.trysend", 40, 45, -1, 0)
	self := selfTimes(tc.recorded())
	want := map[string]int64{"harness": 100 - 20 - 60 - 5, "core": 20 + 60 + 25, "nettrans": 5}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self time %s = %d, want %d", k, self[k], v)
		}
	}
	full := newTracer(1)
	full.record("a.b", 0, 1, -1, 0)
	full.record("a.b", 0, 1, -1, 0)
	if full.dropped.Load() != 1 || len(full.recorded()) != 1 {
		t.Error("a full span table must count what it drops")
	}
}
