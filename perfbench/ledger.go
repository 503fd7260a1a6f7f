package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/rtable"
	"treep/internal/sim"
)

// The per-layer ledger drives single entry points of the proto, rtable,
// routing and sim packages on state captured from the running workload,
// and reports ns/op and allocs/op for each.

// cost is one ledger measurement: time and heap allocations per call.
type cost struct {
	ns, allocs float64
}

// ledgerRounds timed rounds are taken per measurement; the median round's
// ns/op is reported.
const ledgerRounds = 5

// measure times fn over iters calls per round. fn receives the call index.
func measure(iters int, fn func(i int)) cost {
	var nsPerOp []float64
	var ms0, ms1 runtime.MemStats
	var c cost
	fn(0) // warm caches and lazily built state
	for r := 0; r < ledgerRounds; r++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		nsPerOp = append(nsPerOp, float64(el.Nanoseconds())/float64(iters))
		c.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	}
	c.ns = median(nsPerOp)
	return c
}

// simLedger times Kernel.Schedule followed by Step with pending events
// already queued, as many as the run had mid-window.
func simLedger(pending int, seed int64) cost {
	if pending < 1 {
		pending = 1
	}
	k := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}
	// Delays span a few keep-alive periods, like the protocol's timers.
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(4 * time.Second)))
	}
	for i := 0; i < pending; i++ {
		k.Schedule(delays[i%len(delays)], noop)
	}
	return measure(100000, func(i int) {
		k.Schedule(delays[i%len(delays)], noop)
		k.Step()
	})
}

// rtableLedger rebuilds a real node's level-0 set from captured entries and
// times Upsert (refreshing known entries, the steady-state path),
// ChangedSince (the delta a keep-alive ships) and Nearest (for the
// workload's targets).
type rtableCosts struct{ upsert, changed, nearest cost }

func rtableLedger(entries []rtable.Entry, targets []idspace.ID, now time.Duration) rtableCosts {
	var out rtableCosts
	if len(entries) == 0 || len(targets) == 0 {
		return out
	}
	s := rtable.NewSet()
	versions := make([]int, len(entries))
	for i, e := range entries {
		s.Upsert(e.Ref, e.Flags, e.LastSeen, e.Version, rtable.Direct)
		versions[i] = int(e.Version)
	}
	sort.Ints(versions)
	since := uint32(versions[len(versions)/2])
	maxV := uint32(versions[len(versions)-1])
	out.upsert = measure(100000, func(i int) {
		e := &entries[i%len(entries)]
		s.Upsert(e.Ref, e.Flags, now, maxV, rtable.Direct)
	})
	buf := make([]proto.Entry, 0, len(entries))
	out.changed = measure(20000, func(int) { buf = s.ChangedSince(since, 0, now, buf[:0]) })
	out.nearest = measure(100000, func(i int) { s.Nearest(targets[i%len(targets)]) })
	return out
}

// routeLedger times routing.RouteWith on captured nodes' live tables for
// the workload's lookup targets. It only reads the tables.
func routeLedger(nodes []*core.Node, targets []idspace.ID) cost {
	if len(nodes) == 0 || len(targets) == 0 {
		return cost{}
	}
	var sc routing.Scratch
	req := &proto.LookupRequest{TTL: 255, Hops: 1, Algo: proto.AlgoG}
	return measure(20000, func(i int) {
		n := nodes[i%len(nodes)]
		req.Origin = n.Ref()
		req.Target = targets[(i/len(nodes))%len(targets)]
		routing.RouteWith(&sc, n.Ref(), n.Table(), req, false, 0, n.Config().Routing)
	})
}

// protoCosts is the codec ledger over a captured message mix.
type protoCosts struct {
	encode, decode  [numTypes]cost
	allocsPerMsg    float64 // mix-weighted allocations of one encode plus one decode
	bytesPerMsg     float64 // mix-weighted encoded size
	measured        [numTypes]bool
	totalMsgsWeight uint64
}

// protoLedger times EncodeAppend and DecodePooled+ReleaseDecoded on the
// captured encodings of each message type, weighting by the counts the
// run produced.
func protoLedger(samples [numTypes][][]byte, counts [numTypes]uint64) protoCosts {
	var out protoCosts
	buf := make([]byte, 0, proto.MaxDatagram)
	var weight uint64
	for t := range samples {
		if len(samples[t]) == 0 || counts[t] == 0 {
			continue
		}
		enc := samples[t]
		msgs := make([]proto.Message, len(enc))
		ok := true
		size := 0
		for i, b := range enc {
			m, err := proto.Decode(b)
			if err != nil {
				ok = false
				break
			}
			msgs[i] = m
			size += len(b)
		}
		if !ok {
			continue
		}
		out.encode[t] = measure(20000, func(i int) { buf = proto.EncodeAppend(buf[:0], msgs[i%len(msgs)]) })
		out.decode[t] = measure(20000, func(i int) {
			m, err := proto.DecodePooled(enc[i%len(enc)])
			if err == nil {
				proto.ReleaseDecoded(m)
			}
		})
		out.measured[t] = true
		w := float64(counts[t])
		out.allocsPerMsg += w * (out.encode[t].allocs + out.decode[t].allocs)
		out.bytesPerMsg += w * float64(size) / float64(len(enc))
		weight += counts[t]
	}
	if weight > 0 {
		out.allocsPerMsg /= float64(weight)
		out.bytesPerMsg /= float64(weight)
	}
	out.totalMsgsWeight = weight
	return out
}
