package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// entryClass is the capacity of the pooled entry buffer that holds n
// entries (an exact-size slice above the largest class).
func entryClass(n int) int {
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		if n <= k {
			return k
		}
	}
	return n
}

// TestComposeUpdateClassBuffers pins the keep-alive compose path to the
// entry classes: an update of n entries ships in the smallest class that
// holds it, and once warm a compose→Recycle round trip allocates nothing
// up to the largest class (one exact-size slice above it).
func TestComposeUpdateClassBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; pooled paths cannot be alloc-free")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, count := range []int{1, 8, 9, 64, 65, 256, 257} {
		cfg := Defaults()
		cfg.ID = idspace.ID(1 << 63)
		cfg.Profile = nodeprof.NewGenerator(nodeprof.DefaultClasses(), 1).Next()
		n := NewNode(cfg, &benchEnv{addr: 1, rng: rand.New(rand.NewSource(1))})
		// Vouched neighbour-children ride the delta only (no structural
		// echo), so the update holds exactly count entries.
		for i := 0; i < count; i++ {
			ref := proto.NodeRef{ID: idspace.ID(uint64(i+1) << 40), Addr: uint64(100 + i)}
			n.table.NbrChildren.Upsert(ref, proto.FChild|proto.FIndirect, 0, n.table.NextVersion(), rtable.Vouched)
		}
		const peer = 2
		ps := n.peerFor(peer)
		want := 0.0
		if count > 256 {
			want = 1
		}
		allocs := testing.AllocsPerRun(50, func() {
			ps.lastSent = 0 // re-ship the whole delta every round
			p := proto.AcquirePing()
			p.Entries = n.composeUpdate(peer, false)
			if len(p.Entries) != count || cap(p.Entries) != entryClass(count) {
				t.Fatalf("count %d: update len %d cap %d, want cap %d",
					count, len(p.Entries), cap(p.Entries), entryClass(count))
			}
			p.Recycle()
		})
		if allocs != want {
			t.Fatalf("count %d: compose→Recycle allocated %.1f times, want %.0f", count, allocs, want)
		}
	}
}

// TestForwardedPongAllocFree pins the upward forward of newly learned
// upper-level members (§III.d): the Pong to the parent takes a class
// buffer sized by the inbound entry count, so forwarding allocates
// nothing once warm.
func TestForwardedPongAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; pooled paths cannot be alloc-free")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nodes, _, _, _ := benchCluster(512)
	var child, sender *Node
	var parent proto.NodeRef
	for i := 1; i < len(nodes) && child == nil; i++ {
		p, ok := nodes[i].table.Parent()
		if ok && nodes[i].maxLevel == 0 && nodes[i-1].Addr() != p.Addr {
			child, sender, parent = nodes[i], nodes[i-1], p
		}
	}
	if child == nil {
		t.Fatal("no level-0 node with a non-parent ring neighbour")
	}
	// Two unknown level-1 members right beside the child's ID: the nearest
	// on each side, so hearsay records them and they flow upward.
	fresh := []proto.NodeRef{
		{ID: child.ID() + 1, Addr: 1 << 40, MaxLevel: 1},
		{ID: child.ID() - 1, Addr: 1<<40 + 1, MaxLevel: 1},
	}
	in := &proto.Pong{From: sender.Ref(), Seq: 1}
	for _, r := range fresh {
		in.Entries = append(in.Entries, proto.Entry{Ref: r, Version: 1, Level: 1, Flags: proto.FNeighbor})
	}
	forwarded := 0
	child.env.(*benchEnv).onSend = func(to uint64, msg proto.Message) {
		if up, ok := msg.(*proto.Pong); ok && to == parent.Addr {
			forwarded++
			if len(up.Entries) != len(fresh) || cap(up.Entries) != entryClass(len(in.Entries)) {
				t.Fatalf("forward len %d cap %d, want len %d cap %d",
					len(up.Entries), cap(up.Entries), len(fresh), entryClass(len(in.Entries)))
			}
		}
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		child.HandleMessage(sender.Addr(), in)
		for _, r := range fresh { // forget them so the next round re-learns
			child.table.BusLevel(1).Remove(r.Addr)
		}
	})
	if forwarded != runs+1 {
		t.Fatalf("%d forwards in %d rounds", forwarded, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("forwarding upward allocated %.1f times per Pong, want 0", allocs)
	}
}
