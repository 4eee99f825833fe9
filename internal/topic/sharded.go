package topic

import (
	"errors"
	"fmt"
	"sync"

	"flipc/internal/core"
	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
)

// ErrNoShard reports a topic routed to a shard this directory has no
// target for — the map names a shard that was never installed (or the
// map itself is missing).
var ErrNoShard = errors.New("topic: no directory for owning shard")

// ShardedDirectory routes every membership op to the registry shard
// that owns the topic, per the consistent-hash shard map, and is the
// one directory whose targets can be swapped when a registry fails
// over. Each shard keeps its own target and retarget epoch, so a
// failover on one shard retargets exactly that shard's publishers and
// subscribers — the other shards' leases, fanout plans, and replay
// cursors never observe it. That per-shard indirection is the whole
// point: the failure domain of a registry shard is the topics it owns,
// nothing more. An unsharded deployment is the one-shard case
// (shardmap.Restore(0, []shardmap.Entry{{ID: 0}}), retargeted with
// SetShard(0, …)).
//
// Publishers and subscribers keep their directory handle for the
// process lifetime; no one restarts on a retarget. The new primary's
// fence bumped every topic generation, so the first snapshot from the
// new target reads as stale and every cached fanout plan rebuilds on
// its next refresh, while lease renewals re-validate the subscriber
// sets the new primary imported.
type ShardedDirectory struct {
	mu     sync.RWMutex
	m      *shardmap.Map
	dirs   map[uint32]Directory
	epochs map[uint32]uint64

	// MaxRedirects bounds each op's NotOwner redirect chain (0 applies
	// nameservice.DefaultMaxRedirects). Wiring-time configuration.
	MaxRedirects int
	redirects    nameservice.RedirectStats
}

// NewShardedDirectory builds a sharded directory over an initial map.
// Shard targets are installed with SetShard.
func NewShardedDirectory(m *shardmap.Map) *ShardedDirectory {
	return &ShardedDirectory{m: m, dirs: make(map[uint32]Directory), epochs: make(map[uint32]uint64)}
}

// RedirectStats exposes the directory's NotOwner redirect accounting
// (followed redirects and over-bound storms).
func (s *ShardedDirectory) RedirectStats() *nameservice.RedirectStats {
	return &s.redirects
}

// SetShard installs the directory for shard id, or — driven by whoever
// watches that shard's registry endpoint (the NodeRegistry, a
// RegistryInfo probe) — retargets it and bumps the shard's epoch.
// Every later op routed to the shard reaches the new target.
func (s *ShardedDirectory) SetShard(id uint32, dir Directory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dirs[id]; ok {
		s.epochs[id]++
	}
	s.dirs[id] = dir
}

// Epoch returns how many times shard id has been retargeted — clients
// compare it to detect a failover they have not yet reacted to.
func (s *ShardedDirectory) Epoch(id uint32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[id]
}

// Map returns the current shard map.
func (s *ShardedDirectory) Map() *shardmap.Map {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m
}

// ShardFor resolves the shard owning topic under the current map.
func (s *ShardedDirectory) ShardFor(topic string) (uint32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.m == nil {
		return 0, false
	}
	return s.m.ShardOf(topic)
}

// startShard resolves the shard a name hashes to under the current map.
func (s *ShardedDirectory) startShard(name string) (uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.m == nil {
		return 0, fmt.Errorf("%w: no shard map for %q", ErrNoShard, name)
	}
	id, ok := s.m.ShardOf(name)
	if !ok {
		return 0, fmt.Errorf("%w: empty shard map for %q", ErrNoShard, name)
	}
	return id, nil
}

// follow runs op against the shard owning name, following NotOwner
// redirects (a stale local map during a split or merge) through the
// shared bounded helper. A redirect that names a shard this directory
// never installed surfaces as ErrNoShard — the caller must refetch the
// map and install the target, not loop.
func (s *ShardedDirectory) follow(name string, op func(dir Directory) error) error {
	start, err := s.startShard(name)
	if err != nil {
		return err
	}
	return nameservice.FollowOwner(start, s.MaxRedirects, &s.redirects, func(shard uint32) error {
		s.mu.RLock()
		dir := s.dirs[shard]
		s.mu.RUnlock()
		if dir == nil {
			return fmt.Errorf("%w: shard %d for %q", ErrNoShard, shard, name)
		}
		return op(dir)
	})
}

// Subscribe implements Directory.
func (s *ShardedDirectory) Subscribe(topic string, addr core.Addr, class Class) error {
	return s.follow(topic, func(dir Directory) error {
		return dir.Subscribe(topic, addr, class)
	})
}

// Unsubscribe implements Directory.
func (s *ShardedDirectory) Unsubscribe(topic string, addr core.Addr) error {
	return s.follow(topic, func(dir Directory) error {
		return dir.Unsubscribe(topic, addr)
	})
}

// Snapshot implements Directory.
func (s *ShardedDirectory) Snapshot(topic string) (nameservice.TopicSnapshot, error) {
	var snap nameservice.TopicSnapshot
	err := s.follow(topic, func(dir Directory) error {
		var ferr error
		snap, ferr = dir.Snapshot(topic)
		return ferr
	})
	return snap, err
}

// AckCursor implements Directory.
func (s *ShardedDirectory) AckCursor(topic, sub string, seq uint64) error {
	return s.follow(topic, func(dir Directory) error {
		return dir.AckCursor(topic, sub, seq)
	})
}

// SubscribePattern implements Directory. A pattern can match
// topics on any shard, so it is broadcast to every installed shard;
// the first failure is returned after all shards were attempted (the
// others hold the lease, and the next renewal retries the failed one).
func (s *ShardedDirectory) SubscribePattern(pat string, addr core.Addr) error {
	return s.broadcast(pat, func(dir Directory) error {
		return dir.SubscribePattern(pat, addr)
	})
}

// UnsubscribePattern implements Directory (broadcast, like
// SubscribePattern).
func (s *ShardedDirectory) UnsubscribePattern(pat string, addr core.Addr) error {
	return s.broadcast(pat, func(dir Directory) error {
		return dir.UnsubscribePattern(pat, addr)
	})
}

func (s *ShardedDirectory) broadcast(pat string, op func(dir Directory) error) error {
	s.mu.RLock()
	targets := make([]Directory, 0, len(s.dirs))
	for _, dir := range s.dirs {
		targets = append(targets, dir)
	}
	s.mu.RUnlock()
	if len(targets) == 0 {
		return fmt.Errorf("%w: no shards installed for pattern %q", ErrNoShard, pat)
	}
	var firstErr error
	for _, dir := range targets {
		if err := op(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// UpsertPresence implements Directory. Presence is routed by the
// client KEY's hash — not a topic name — so the edge plane's lease
// load spreads across the registry shards; NotOwner redirects cover a
// map the gateway has not refreshed yet.
func (s *ShardedDirectory) UpsertPresence(key, gw string, addr core.Addr) error {
	return s.follow(key, func(dir Directory) error {
		return dir.UpsertPresence(key, gw, addr)
	})
}

// DropPresence implements Directory (routed like UpsertPresence).
func (s *ShardedDirectory) DropPresence(key string) error {
	return s.follow(key, func(dir Directory) error {
		return dir.DropPresence(key)
	})
}
