package overlay

import (
	"math/rand"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// TreeP adapts a simrt.Cluster (the paper's overlay) to the Overlay
// interface. It holds no state of its own beyond the fields below, so any
// number of adapters may wrap one cluster.
type TreeP struct {
	C *simrt.Cluster
	// Algo is the lookup algorithm. The zero value is algorithm G — the
	// paper's baseline greedy algorithm — so the cross-protocol comparison
	// measures the architecture, not the smartest retry strategy.
	Algo proto.Algo
	// Victims draws the node each Leave fail-stops; only Leave uses it.
	Victims *rand.Rand
	// OnJoin, when set, sees every node Join spawns.
	OnJoin func(*core.Node)
}

// NewTreeP builds a bulk-initialised, started TreeP cluster of n nodes.
func NewTreeP(n int, seed int64) *TreeP {
	c := simrt.New(simrt.Options{
		N:      n,
		Seed:   seed,
		Config: core.Defaults(),
		Bulk:   true,
	})
	c.StartAll()
	return &TreeP{C: c, Victims: c.Stream(0x6f766c79)} // "ovly"
}

// Name implements Overlay.
func (t *TreeP) Name() string { return "treep" }

// Now implements Overlay.
func (t *TreeP) Now() time.Duration { return t.C.Now() }

// NetStats implements Overlay.
func (t *TreeP) NetStats() netsim.Stats { return t.C.Net.Stats() }

// AliveCount implements Overlay.
func (t *TreeP) AliveCount() int { return t.C.AliveCount() }

// AliveIDs implements Overlay.
func (t *TreeP) AliveIDs() []idspace.ID {
	alive := t.C.AliveNodes()
	out := make([]idspace.ID, len(alive))
	for i, n := range alive {
		out[i] = n.ID()
	}
	return out
}

// Join implements Overlay: spawn a fresh node and bootstrap it through a
// live peer (the protocol's dynamic join).
func (t *TreeP) Join() bool {
	n := t.C.SpawnJoin()
	if n != nil && t.OnJoin != nil {
		t.OnJoin(n)
	}
	return n != nil
}

// Leave implements Overlay.
func (t *TreeP) Leave() bool {
	alive := t.C.AliveNodes()
	if len(alive) <= 2 {
		return false
	}
	t.C.Kill(alive[t.Victims.Intn(len(alive))])
	return true
}

// KillZone implements Overlay.
func (t *TreeP) KillZone(zone idspace.Region) int {
	killed := 0
	for _, n := range t.C.AliveNodes() {
		if zone.Contains(n.ID()) {
			t.C.Kill(n)
			killed++
		}
	}
	return killed
}

// Partition implements Overlay.
func (t *TreeP) Partition(split idspace.ID) { t.C.Partition(split) }

// Heal implements Overlay.
func (t *TreeP) Heal() { t.C.Heal() }

// MaintenanceTick implements Overlay. TreeP's failure detection is fully
// in-protocol (parent keepalives, table sweeps), so there is nothing to
// model out-of-band.
func (t *TreeP) MaintenanceTick() {}

// Lookup implements Overlay.
func (t *TreeP) Lookup(origin int, target idspace.ID, cb func(Outcome)) {
	alive := t.C.AliveNodes()
	if len(alive) == 0 {
		cb(Outcome{})
		return
	}
	n := alive[origin%len(alive)]
	n.Lookup(target, t.Algo, func(r core.LookupResult) {
		cb(Outcome{
			Found:   r.Status == core.LookupFound && r.Best.ID == target,
			Timeout: r.Status == core.LookupTimeout,
			Hops:    r.Hops,
			Latency: r.Latency,
		})
	})
}

// LookupWindow implements Overlay.
func (t *TreeP) LookupWindow() time.Duration {
	return t.C.Nodes[0].Config().LookupTimeout + time.Second
}

// Run implements Overlay.
func (t *TreeP) Run(d time.Duration) { t.C.Run(d) }

// StateSize implements Overlay: total routing-table entries across live
// nodes (parents, buses, rings — everything the table holds).
func (t *TreeP) StateSize() int {
	total := 0
	for _, n := range t.C.AliveNodes() {
		total += n.Table().Size()
	}
	return total
}
