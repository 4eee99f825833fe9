package topic

import (
	"errors"
	"testing"

	"flipc/internal/core"
	"flipc/internal/nameservice"
	"flipc/internal/shardmap"
	"flipc/internal/wire"
)

func shardedFixture(t *testing.T) (*ShardedDirectory, map[uint32]*nameservice.TopicRegistry, map[uint32]string) {
	t.Helper()
	m := shardmap.Restore(3, []shardmap.Entry{{ID: 0}, {ID: 1}, {ID: 2}})
	sd := NewShardedDirectory(m)
	regs := map[uint32]*nameservice.TopicRegistry{}
	for id := uint32(0); id < 3; id++ {
		regs[id] = nameservice.NewTopicRegistry()
		sd.SetShard(id, LocalDirectory{R: regs[id]})
	}
	owned := map[uint32]string{}
	for i := 0; len(owned) < 3 && i < 1000; i++ {
		name := "t-" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
		id, ok := sd.ShardFor(name)
		if !ok {
			t.Fatal("sharded directory refused to route")
		}
		if _, have := owned[id]; !have {
			owned[id] = name
		}
	}
	if len(owned) < 3 {
		t.Fatal("could not find a topic per shard")
	}
	return sd, regs, owned
}

func mustAddr(t *testing.T, node uint16, ep uint16) core.Addr {
	t.Helper()
	a, err := wire.MakeAddr(wire.NodeID(node), ep, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShardedDirectoryPartitions: each op lands only in the owning
// shard's registry — the other shards never see the topic.
func TestShardedDirectoryPartitions(t *testing.T) {
	sd, regs, owned := shardedFixture(t)
	addr := mustAddr(t, 2, 3)
	for id, name := range owned {
		if err := sd.Subscribe(name, addr, Control); err != nil {
			t.Fatalf("subscribe %q: %v", name, err)
		}
		snap, err := sd.Snapshot(name)
		if err != nil || len(snap.Subs) != 1 {
			t.Fatalf("snapshot %q: %+v, %v", name, snap, err)
		}
		for other, reg := range regs {
			if _, ok := reg.Snapshot(name); ok != (other == id) {
				t.Fatalf("topic %q present in shard %d registry (owner %d)", name, other, id)
			}
		}
	}
}

// TestShardedDirectoryRetargetIsolation: retargeting one shard bumps
// that shard's retarget epoch only, and subsequent ops on its topics
// hit the new target while other shards keep their original ones.
func TestShardedDirectoryRetargetIsolation(t *testing.T) {
	sd, regs, owned := shardedFixture(t)
	addr := mustAddr(t, 2, 4)

	before := map[uint32]uint64{}
	for id := uint32(0); id < 3; id++ {
		before[id] = sd.Epoch(id)
		if before[id] != 0 {
			t.Fatalf("shard %d epoch %d after install, want 0: installing is not a retarget", id, before[id])
		}
	}
	// Shard 1 fails over to a fresh registry (the promoted standby).
	promoted := nameservice.NewTopicRegistry()
	sd.SetShard(1, LocalDirectory{R: promoted})
	for id := uint32(0); id < 3; id++ {
		want := before[id]
		if id == 1 {
			want++
		}
		if got := sd.Epoch(id); got != want {
			t.Fatalf("shard %d epoch %d after shard-1 retarget, want %d", id, got, want)
		}
	}
	if err := sd.Subscribe(owned[1], addr, Normal); err != nil {
		t.Fatal(err)
	}
	if _, ok := promoted.Snapshot(owned[1]); !ok {
		t.Fatal("post-retarget subscribe missed the promoted registry")
	}
	if _, ok := regs[1].Snapshot(owned[1]); ok {
		t.Fatal("post-retarget subscribe leaked to the demoted registry")
	}
	// Other shards still reach their original registries.
	if err := sd.Subscribe(owned[2], addr, Normal); err != nil {
		t.Fatal(err)
	}
	if _, ok := regs[2].Snapshot(owned[2]); !ok {
		t.Fatal("shard-2 subscribe missed its registry after shard-1 retarget")
	}
}

// TestShardedDirectoryNoShard: a map naming an uninstalled shard (and
// a missing map) answer ErrNoShard rather than misrouting.
func TestShardedDirectoryNoShard(t *testing.T) {
	m := shardmap.Restore(2, []shardmap.Entry{{ID: 0}, {ID: 7}})
	sd := NewShardedDirectory(m)
	sd.SetShard(0, LocalDirectory{R: nameservice.NewTopicRegistry()})
	addr := mustAddr(t, 2, 5)

	var name string
	for i := 0; i < 1000; i++ {
		cand := "u-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if id, _ := sd.ShardFor(cand); id == 7 {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no topic routed to shard 7")
	}
	if err := sd.Subscribe(name, addr, Normal); !errors.Is(err, ErrNoShard) {
		t.Fatalf("subscribe via uninstalled shard: %v, want ErrNoShard", err)
	}
	if _, err := sd.Snapshot(name); !errors.Is(err, ErrNoShard) {
		t.Fatalf("snapshot via uninstalled shard: %v, want ErrNoShard", err)
	}

	empty := NewShardedDirectory(nil)
	if err := empty.AckCursor("x", "s", 1); !errors.Is(err, ErrNoShard) {
		t.Fatalf("op with no map: %v, want ErrNoShard", err)
	}

	// The reserved stream of a mapped shard routes to it.
	if id, ok := sd.ShardFor("!registry/7"); !ok || id != 7 {
		t.Fatalf("reserved stream routed to %d/%v, want shard 7", id, ok)
	}
}
