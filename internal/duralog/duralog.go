// Package duralog is the opt-in per-topic durable payload log behind
// FLIPC's replay cursors. The optimistic protocol never blocks a send
// and counts every loss; duralog adds the complementary guarantee for
// topics that opt in: every published payload is journaled off the hot
// path, and a subscriber that disconnected, was quarantine-evicted, or
// stalled past its credit window replays the range it lost from its
// acknowledged cursor instead of keeping only the count.
//
// The storage discipline is internal/registrystore's, applied to
// payload frames through the shared internal/recio codec:
//
//   - CRC-framed records with torn-tail truncation: a payload cut
//     short by a crash mid-write was never acknowledged durable, so
//     recovery drops it exactly;
//   - fsync by record class: payload appends group-commit every
//     syncEvery records (a crash loses at most the unsynced window —
//     bounded, counted, and no worse than the optimistic baseline),
//     while cursor acks are never synced: a lost ack re-merges from
//     the next in-band acknowledgement, and cursors only move forward;
//   - segmented retention: the log rotates fixed-size segments named
//     by their first payload sequence, and Retain deletes whole
//     segments once every registered cursor has passed them (with a
//     MaxSegments hard cap that force-drops the oldest segment and
//     counts the cursors it strands — a retention breach, surfaced in
//     Health and /healthz, never silent).
//
// Sequences are contiguous from 1 per topic. Cursors are keyed by a
// stable subscriber name (addresses change across rebinds and
// quarantine recoveries; the replay position must not) and are
// max-merged, so duplicate or reordered acks are idempotent.
package duralog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flipc/internal/recio"
	"flipc/internal/wire"
)

// Record types in a segment file.
const (
	// recPayload carries one published payload: Frame.Seq is the
	// payload sequence (contiguous from 1), body = flags(1) | payload.
	// The flags byte preserves the publish-time wire flags so replayed
	// frames re-send faithfully.
	recPayload = 1
	// recCursor journals a cursor ack in-line: Frame.Seq is the acked
	// payload sequence, body = subscriber name. Unsynced (see package
	// comment).
	recCursor = 2
)

// cursorsMagic marks a cursors.dat file ("FLDC").
const cursorsMagic = 0x464C4443

// cursorsVersion is the cursors.dat format version.
const cursorsVersion = 1

// cursorsName is the cursor checkpoint file inside a log directory.
const cursorsName = "cursors.dat"

// segPrefix and segSuffix frame segment file names; the middle is the
// first payload sequence in the segment, hex, zero-padded so the
// lexical order is the sequence order.
const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// MaxPayload is the largest payload one record can carry (recio body
// cap minus the flags byte).
const MaxPayload = 0xFFFF - 1 - 2 // recio v1 body cap - flags byte - ext length

// ErrStop is returned by a Replay callback to end the replay early
// without error.
var ErrStop = errors.New("duralog: stop replay")

// ErrTooLarge reports a payload that cannot fit one record.
var ErrTooLarge = errors.New("duralog: payload too large")

// Options tunes a log.
type Options struct {
	// SegmentBytes is the rotation threshold (default 1 MiB).
	SegmentBytes int
	// NoSync disables fsync entirely (tests and benchmarks).
	NoSync bool
	// MaxSegments caps retained segments; 0 means unbounded. When the
	// cap forces out a segment some cursor still needs, the deletion is
	// counted as a retention breach, never silent.
	MaxSegments int
}

func (o *Options) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
}

// syncEvery is the payload group-commit interval: every syncEvery-th
// payload append flushes and fsyncs.
const syncEvery = 256

// idxEvery is the sparse-index stride: one (sequence, offset) entry per
// this many payload records. Replay seeks to the nearest indexed record
// at or below its resume point instead of scanning the segment from the
// start — without it a catch-up pump behind a live publisher re-reads
// and re-checksums the whole segment on every call, O(head) work per
// publish.
const idxEvery = 64

// idxEntry is one sparse-index point: the byte offset of a payload
// record's start within its segment.
type idxEntry struct {
	seq uint64
	off int64
}

// segment is one on-disk log segment.
type segment struct {
	first uint64 // first payload sequence stored (names the file)
	path  string
	size  int64
	index []idxEntry // sparse payload index, ascending by seq
}

// startOff returns the byte offset Replay should start reading this
// segment from to see every payload record with sequence >= from: the
// nearest indexed record at or below from (0 when from predates the
// segment or no index entry qualifies).
func (s *segment) startOff(from uint64) int64 {
	off := int64(0)
	for _, e := range s.index {
		if e.seq > from {
			break
		}
		off = e.off
	}
	return off
}

// Log is one topic's durable payload log with its replay cursors.
// Safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	dir string
	opt Options

	segs     []segment // sorted by first; the last is the active segment
	active   *os.File  // nil until the first append after open/rotation
	w        *bufio.Writer
	wbuf     int // bytes buffered in w (pending flush), mirrored for size math
	segCount int // payload records in the active segment (index stride)

	head    uint64 // last appended payload sequence (0 = none ever)
	first   uint64 // first retained payload sequence (head+1 when empty)
	cursors map[string]uint64

	unsynced int    // payload appends since the last fsync
	breaches uint64 // forced retention deletions that stranded a cursor
	appended uint64 // payloads appended this incarnation
	acked    uint64 // cursor advances this incarnation
	err      error  // sticky I/O error; surfaced in Health
	enc      []byte
}

// Health is a log's operator-facing state.
type Health struct {
	// Head is the last appended payload sequence.
	Head uint64
	// First is the first retained payload sequence.
	First uint64
	// Depth is the number of retained payloads (Head - First + 1).
	Depth uint64
	// Segments is the number of on-disk segments.
	Segments int
	// Cursors maps subscriber name to acknowledged sequence.
	Cursors map[string]uint64
	// MaxLag is Head minus the lowest cursor (0 with no cursors).
	MaxLag uint64
	// LaggingSub names the subscriber at MaxLag.
	LaggingSub string
	// Breached reports a cursor lagging past the retention horizon:
	// its next needed sequence was force-deleted, so a resume from it
	// starts at First with a counted gap.
	Breached bool
	// RetentionBreaches counts forced segment deletions that stranded
	// at least one cursor.
	RetentionBreaches uint64
	// Err is the sticky I/O error, if any.
	Err error
}

// TopicDir maps a topic name to its log directory under root. Names
// are path-escaped so any registry-legal topic name is a legal
// directory.
func TopicDir(root, topic string) string {
	return filepath.Join(root, url.PathEscape(topic))
}

// Open opens (creating if necessary) the log in dir, recovering head,
// retained segments, and cursors. Torn segment tails are truncated —
// a record cut short by a crash mid-write was never acknowledged
// durable — and any segments after a torn or corrupt one are dropped,
// since their contents were written after the failure point.
func Open(dir string, opt Options) (*Log, error) {
	opt.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	l := &Log{dir: dir, opt: opt, cursors: make(map[string]uint64)}

	head, err := readCursors(filepath.Join(dir, cursorsName), l.cursors)
	if err != nil {
		return nil, err
	}
	l.head = head

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		buf, err := os.ReadFile(segs[i].path)
		if err != nil {
			return nil, fmt.Errorf("duralog: %w", err)
		}
		consumed, err := l.replaySegment(buf, &segs[i])
		if err != nil {
			return nil, err
		}
		if consumed < len(buf) || consumed == 0 {
			// Torn or corrupt: this incarnation ends here. Truncate the
			// durable prefix and drop every later segment (written after
			// the failure point, so nothing in them was acknowledged in
			// order).
			if consumed == 0 && i > 0 {
				os.Remove(segs[i].path)
			} else {
				if err := os.Truncate(segs[i].path, int64(consumed)); err != nil {
					return nil, fmt.Errorf("duralog: truncate torn segment: %w", err)
				}
				segs[i].size = int64(consumed)
				l.segs = append(l.segs, segs[i])
			}
			for _, s := range segs[i+1:] {
				os.Remove(s.path)
			}
			break
		}
		l.segs = append(l.segs, segs[i])
	}
	if len(l.segs) > 0 {
		l.first = l.segs[0].first
	} else {
		l.first = l.head + 1
	}
	// Cursors never exceed head (acks are clamped on the way in; a
	// stale checkpoint cannot resurrect one above the recovered head).
	for s, c := range l.cursors {
		if c > l.head {
			l.cursors[s] = l.head
		}
	}
	return l, nil
}

// replaySegment scans one segment's bytes into the log's recovered
// state — rebuilding its sparse payload index and leaving l.segCount
// at the segment's payload count, so appends to a reopened active
// segment continue the index stride — and returns the durable prefix
// length.
func (l *Log) replaySegment(buf []byte, s *segment) (int, error) {
	l.segCount = 0
	var off int64
	consumed, err := recio.Scan(buf, func(f recio.Frame, size int) error {
		rec := off
		off += int64(size)
		switch f.Type {
		case recPayload:
			if len(f.Payload) < 1 {
				return fmt.Errorf("%w: payload record %d bytes", recio.ErrCorrupt, len(f.Payload))
			}
			if f.Seq > l.head {
				l.head = f.Seq
			}
			if l.segCount%idxEvery == 0 {
				s.index = append(s.index, idxEntry{seq: f.Seq, off: rec})
			}
			l.segCount++
		case recCursor:
			sub := string(f.Payload)
			if sub == "" {
				break
			}
			// Insert-if-absent (see readCursors): seq 0 still
			// registers the subscriber for retention and health.
			if cur, ok := l.cursors[sub]; !ok || f.Seq > cur {
				l.cursors[sub] = f.Seq
			}
		}
		return nil
	})
	if err != nil {
		return consumed, fmt.Errorf("duralog: %w", err)
	}
	return consumed, nil
}

// listSegments returns dir's segments sorted by first sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("duralog: %w", err)
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// Append journals one payload with its publish-time wire flags,
// returning the assigned sequence. The write lands in the group-commit
// buffer; every syncEvery-th append flushes and fsyncs.
func (l *Log) Append(flags uint8, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	seq := l.head + 1
	l.enc = l.enc[:0]
	l.enc = append(l.enc, flags)
	l.enc = append(l.enc, payload...)
	body := l.enc
	framed, err := recio.Append(nil, &recio.Frame{Type: recPayload, Ver: recio.V1, Seq: seq, Payload: body})
	if err != nil {
		return 0, err
	}
	if err := l.writeLocked(framed, seq); err != nil {
		return 0, err
	}
	l.head = seq
	l.appended++
	l.unsynced++
	if l.unsynced >= syncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Ack advances sub's cursor to seq (max-merged, clamped to head) and
// journals the advance unsynced. Idempotent: duplicate and reordered
// acks are no-ops.
func (l *Log) Ack(sub string, seq uint64) error {
	if sub == "" || len(sub) > 255 {
		return fmt.Errorf("duralog: bad subscriber name length %d", len(sub))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if seq > l.head {
		seq = l.head
	}
	if cur, ok := l.cursors[sub]; ok && cur >= seq {
		return nil
	}
	l.cursors[sub] = seq
	l.acked++
	framed, err := recio.Append(nil, &recio.Frame{Type: recCursor, Ver: recio.V1, Seq: seq, Payload: []byte(sub)})
	if err != nil {
		return err
	}
	// Cursor records ride the current segment only when one is open:
	// an ack on an empty log has nothing to recover from anyway, and
	// the checkpoint file carries it across Close.
	if l.active != nil {
		return l.writeRawLocked(framed)
	}
	return nil
}

// writeLocked writes one framed payload record, rotating first if the
// active segment is full (or absent). seq names a new segment — the
// invariant is that every segment starts with the payload record it is
// named after. Caller holds l.mu.
func (l *Log) writeLocked(framed []byte, seq uint64) error {
	if l.active == nil || int(l.segs[len(l.segs)-1].size)+l.wbuf >= l.opt.SegmentBytes {
		if err := l.rotateLocked(seq); err != nil {
			return err
		}
	}
	if l.segCount%idxEvery == 0 {
		s := &l.segs[len(l.segs)-1]
		s.index = append(s.index, idxEntry{seq: seq, off: s.size + int64(l.wbuf)})
	}
	l.segCount++
	return l.writeRawLocked(framed)
}

// writeRawLocked appends bytes to the active segment's buffer. Caller
// holds l.mu and has ensured a segment is open.
func (l *Log) writeRawLocked(b []byte) error {
	if _, err := l.w.Write(b); err != nil {
		l.err = fmt.Errorf("duralog: segment write: %w", err)
		return l.err
	}
	l.wbuf += len(b)
	return nil
}

// rotateLocked seals the active segment (flush + sync: rotation is a
// durability boundary) and opens a new one named first. Caller holds
// l.mu.
func (l *Log) rotateLocked(first uint64) error {
	if l.active != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			l.err = fmt.Errorf("duralog: segment close: %w", err)
			return l.err
		}
		l.active, l.w = nil, nil
	}
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		l.err = fmt.Errorf("duralog: %w", err)
		return l.err
	}
	l.active = f
	l.w = bufio.NewWriter(f)
	l.wbuf = 0
	l.segCount = 0
	l.segs = append(l.segs, segment{first: first, path: path})
	if len(l.segs) == 1 {
		l.first = first
	}
	return nil
}

// syncLocked flushes the group-commit buffer and fsyncs the active
// segment. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if l.active == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.opt.NoSync {
		if err := l.active.Sync(); err != nil {
			l.err = fmt.Errorf("duralog: segment sync: %w", err)
			return l.err
		}
	}
	l.unsynced = 0
	return nil
}

// flushLocked moves buffered bytes to the OS, updating the active
// segment's size. Caller holds l.mu.
func (l *Log) flushLocked() error {
	if l.w == nil || l.wbuf == 0 {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("duralog: segment flush: %w", err)
		return l.err
	}
	l.segs[len(l.segs)-1].size += int64(l.wbuf)
	l.wbuf = 0
	return nil
}

// Sync forces a group commit (flush + fsync) immediately.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

// Cursor returns sub's acknowledged sequence; ok reports whether sub
// has ever acked.
func (l *Log) Cursor(sub string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.cursors[sub]
	return seq, ok
}

// Head returns the last appended payload sequence.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// First returns the first retained payload sequence.
func (l *Log) First() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Replay streams retained payloads with sequence >= from, in order,
// to fn. Returning ErrStop from fn ends the replay without error; any
// other error aborts and is returned. Replay flushes the group-commit
// buffer first so the caller always sees every append that returned.
func (l *Log) Replay(from uint64, fn func(seq uint64, flags uint8, payload []byte) error) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()

	// Segments are immutable once rotated and append-only while
	// active, so reading outside the lock races only with appends
	// beyond the flushed size captured above — which this replay does
	// not promise to include.
	for _, s := range segs {
		if next := segAfter(segs, s.first); next != 0 && next <= from {
			continue // wholly below the resume point
		}
		// Seek via the sparse index: start at the nearest indexed record
		// at or below the resume point instead of re-scanning (and
		// re-checksumming) the whole segment — records start at clean
		// frame boundaries, so a suffix scans like a full segment.
		off := s.startOff(from)
		buf := make([]byte, s.size-off)
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("duralog: %w", err)
		}
		_, err = f.ReadAt(buf, off)
		f.Close()
		if err != nil && len(buf) > 0 {
			return fmt.Errorf("duralog: read segment: %w", err)
		}
		_, err = recio.Scan(buf, func(fr recio.Frame, _ int) error {
			if fr.Type != recPayload || fr.Seq < from || len(fr.Payload) < 1 {
				return nil
			}
			return fn(fr.Seq, fr.Payload[0], fr.Payload[1:])
		})
		if errors.Is(err, ErrStop) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// segAfter returns the first sequence of the segment following the one
// starting at first, or 0 if it is the last.
func segAfter(segs []segment, first uint64) uint64 {
	for i, s := range segs {
		if s.first == first && i+1 < len(segs) {
			return segs[i+1].first
		}
	}
	return 0
}

// Retain applies the retention policy: whole segments every registered
// cursor has fully acknowledged are deleted, and if MaxSegments is set,
// oldest segments beyond the cap are force-deleted even when a cursor
// still needs them (counted as retention breaches). The active segment
// is never deleted. Returns the number of segments removed.
func (l *Log) Retain() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	// The lowest next-needed sequence across cursors gates voluntary
	// deletion. With no cursors nothing is voluntarily deletable: a
	// durable topic with no acked subscriber yet must keep everything
	// (MaxSegments still bounds the disk).
	minNeeded := uint64(0)
	hasCursor := false
	for _, c := range l.cursors {
		if !hasCursor || c+1 < minNeeded {
			minNeeded = c + 1
		}
		hasCursor = true
	}
	removed := 0
	for len(l.segs) > 1 {
		next := l.segs[1].first // first seq the next segment holds
		forced := l.opt.MaxSegments > 0 && len(l.segs) > l.opt.MaxSegments
		if !(hasCursor && next <= minNeeded) && !forced {
			break
		}
		if forced && (!hasCursor || next > minNeeded) {
			l.breaches++
		}
		if err := l.writeCursorsLocked(); err != nil {
			return removed, err
		}
		if err := os.Remove(l.segs[0].path); err != nil {
			l.err = fmt.Errorf("duralog: retention remove: %w", err)
			return removed, l.err
		}
		l.segs = l.segs[1:]
		l.first = l.segs[0].first
		removed++
	}
	return removed, nil
}

// Depth returns the number of retained payloads.
func (l *Log) Depth() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head+1 < l.first {
		return 0
	}
	return l.head + 1 - l.first
}

// Health returns the log's operator-facing state.
func (l *Log) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := Health{
		Head:              l.head,
		First:             l.first,
		Segments:          len(l.segs),
		Cursors:           make(map[string]uint64, len(l.cursors)),
		RetentionBreaches: l.breaches,
		Err:               l.err,
	}
	if l.head+1 > l.first {
		h.Depth = l.head + 1 - l.first
	}
	for s, c := range l.cursors {
		h.Cursors[s] = c
		if lag := l.head - c; lag >= h.MaxLag && (h.LaggingSub == "" || lag > h.MaxLag || s < h.LaggingSub) {
			h.MaxLag = lag
			h.LaggingSub = s
		}
		if c+1 < l.first {
			h.Breached = true
		}
	}
	return h
}

// Close checkpoints the cursors, seals the active segment, and closes
// the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if l.active != nil {
		if err := l.syncLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := l.active.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		l.active, l.w = nil, nil
	}
	if err := l.writeCursorsLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// writeCursorsLocked checkpoints head and the cursor map (atomic tmp +
// rename). Caller holds l.mu.
func (l *Log) writeCursorsLocked() error {
	var b []byte
	var hdr [17]byte
	binary.BigEndian.PutUint32(hdr[0:4], cursorsMagic)
	hdr[4] = cursorsVersion
	binary.BigEndian.PutUint64(hdr[5:13], l.head)
	binary.BigEndian.PutUint32(hdr[13:17], uint32(len(l.cursors)))
	b = append(b, hdr[:]...)
	subs := make([]string, 0, len(l.cursors))
	for s := range l.cursors {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	var seq8 [8]byte
	for _, s := range subs {
		b = append(b, byte(len(s)))
		b = append(b, s...)
		binary.BigEndian.PutUint64(seq8[:], l.cursors[s])
		b = append(b, seq8[:]...)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], wire.Checksum(b))
	b = append(b, crc[:]...)

	path := filepath.Join(l.dir, cursorsName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		l.err = fmt.Errorf("duralog: %w", err)
		return l.err
	}
	if err := os.Rename(tmp, path); err != nil {
		l.err = fmt.Errorf("duralog: %w", err)
		return l.err
	}
	return nil
}

// readCursors loads a cursor checkpoint into cursors, returning the
// checkpointed head. A missing file is an empty checkpoint; a corrupt
// one is ignored the same way — the checkpoint is an optimization over
// the in-segment cursor records, which recovery max-merges on top.
func readCursors(path string, cursors map[string]uint64) (uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("duralog: %w", err)
	}
	if len(b) < 21 {
		return 0, nil
	}
	body, crc := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if wire.Checksum(body) != crc ||
		binary.BigEndian.Uint32(body[0:4]) != cursorsMagic || body[4] != cursorsVersion {
		return 0, nil
	}
	head := binary.BigEndian.Uint64(body[5:13])
	n := int(binary.BigEndian.Uint32(body[13:17]))
	off := 17
	for i := 0; i < n; i++ {
		if off+1 > len(body) {
			return 0, nil
		}
		subLen := int(body[off])
		off++
		if subLen == 0 || off+subLen+8 > len(body) {
			return 0, nil
		}
		sub := string(body[off : off+subLen])
		seq := binary.BigEndian.Uint64(body[off+subLen : off+subLen+8])
		// Insert-if-absent, not just max-merge: a seq-0 cursor is a
		// registered subscriber that has acknowledged nothing yet, and
		// dropping it would let Retain delete the history it still
		// needs (and hide the worst laggard from the health sweep).
		if cur, ok := cursors[sub]; !ok || seq > cur {
			cursors[sub] = seq
		}
		off += subLen + 8
	}
	return head, nil
}

// TopicHealth is one topic's health as seen by ScanDir.
type TopicHealth struct {
	Topic string
	Health
}

// ScanDir reads every topic log under root without opening (and
// therefore without truncating) it — the daemon's read-only health
// sweep over a durable-log root. Torn tails are simply not counted.
func ScanDir(root string) ([]TopicHealth, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("duralog: %w", err)
	}
	var out []TopicHealth
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		topic, err := url.PathUnescape(e.Name())
		if err != nil {
			topic = e.Name()
		}
		dir := filepath.Join(root, e.Name())
		scan := &Log{dir: dir, cursors: make(map[string]uint64)}
		head, err := readCursors(filepath.Join(dir, cursorsName), scan.cursors)
		if err != nil {
			return nil, err
		}
		scan.head = head
		segs, err := listSegments(dir)
		if err != nil {
			return nil, err
		}
		for i := range segs {
			buf, err := os.ReadFile(segs[i].path)
			if err != nil {
				return nil, fmt.Errorf("duralog: %w", err)
			}
			consumed, err := scan.replaySegment(buf, &segs[i])
			if err != nil {
				return nil, err
			}
			scan.segs = append(scan.segs, segs[i])
			if consumed < len(buf) {
				break
			}
		}
		if len(scan.segs) > 0 {
			scan.first = scan.segs[0].first
		} else {
			scan.first = scan.head + 1
		}
		for s, c := range scan.cursors {
			if c > scan.head {
				scan.cursors[s] = scan.head
			}
		}
		out = append(out, TopicHealth{Topic: topic, Health: scan.Health()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out, nil
}
