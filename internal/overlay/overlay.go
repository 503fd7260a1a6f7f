// Package overlay defines the protocol-agnostic surface the comparative
// evaluation harness drives: an Overlay is any routed peer-to-peer network
// (TreeP, the Chord baseline, the flooding baseline) that can join and
// lose members, resolve lookups for node IDs, and run its own maintenance
// on the shared timing-wheel kernel.
//
// Key types:
//
//   - Overlay — the interface every backend implements (join / leave /
//     lookup / maintenance-tick, plus partition injection and state
//     accounting). Adapters: TreeP, Chord, Flood.
//   - Outcome — one lookup's origin-observed result, normalised across
//     protocols (found / timed out / hops / latency).
//
// An Overlay satisfies scenario.Backend, so the scenario engine plays the
// portable phases (Settle, Churn, FlashCrowd, ZoneFailure, PartitionHeal)
// against every backend with one interpreter.
package overlay

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
)

// Outcome is one lookup's origin-observed result, normalised across
// protocols so backends can be compared row for row.
type Outcome struct {
	// Found reports whether the lookup resolved to the exact target node.
	Found bool
	// Timeout reports that the lookup gave up waiting for a reply (TreeP
	// only; the baselines report every miss as not found).
	Timeout bool
	// Hops is the overlay forward count of a successful lookup.
	Hops int
	// Latency is the origin-observed virtual time to resolution.
	Latency time.Duration
}

// Overlay is a routed peer-to-peer network under test. One Overlay owns
// one simulation clock and one netsim.Network; all state mutation happens
// on the simulation's event loop, so an Overlay is not safe for
// concurrent use.
type Overlay interface {
	// Name identifies the backend in records ("treep", "chord", "flood").
	Name() string
	// Now returns the overlay's virtual clock.
	Now() time.Duration
	// NetStats returns the network's cumulative message accounting;
	// callers diff snapshots to charge traffic to phases.
	NetStats() netsim.Stats
	// AliveCount returns the live population.
	AliveCount() int
	// AliveIDs returns the live nodes' IDs in a stable order. The slice is
	// a snapshot owned by the caller; index i corresponds to origin i of
	// Lookup until the next membership change.
	AliveIDs() []idspace.ID
	// Join spawns a brand-new node and bootstraps it through a live peer,
	// reporting whether a bootstrap existed. Integration completes
	// asynchronously as virtual time advances.
	Join() bool
	// Leave fail-stops one live node chosen by the overlay's own
	// deterministic stream (no goodbye message), refusing to shrink the
	// population below two.
	Leave() bool
	// KillZone fail-stops every live node whose ID falls in the region and
	// returns how many died (correlated regional failure).
	KillZone(zone idspace.Region) int
	// Partition splits the network at the coordinate: datagrams between
	// nodes on opposite sides vanish in flight until Heal.
	Partition(split idspace.ID)
	// Heal removes the partition installed by Partition.
	Heal()
	// MaintenanceTick runs the protocol-specific failure handling that the
	// simulation models out-of-band (Chord's timeout-based eviction, the
	// flooding graph's neighbour re-wiring). TreeP detects failures in
	// protocol, so its tick is a no-op. The harness calls it once per
	// phase boundary, before measuring.
	MaintenanceTick()
	// Lookup resolves target from the origin-th live node (an index into
	// the current AliveIDs snapshot) and calls cb exactly once after the
	// caller advances virtual time by at least LookupWindow.
	Lookup(origin int, target idspace.ID, cb func(Outcome))
	// LookupWindow is how much virtual time guarantees every issued lookup
	// has resolved or timed out.
	LookupWindow() time.Duration
	// Run advances virtual time by d, firing deliveries and maintenance.
	Run(d time.Duration)
	// StateSize returns the total routing-state entry count across live
	// nodes (the per-protocol "memory cost" metric).
	StateSize() int
}
