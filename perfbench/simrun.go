package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
	"treep/internal/svc"
)

// simSpec describes one simulated workload. The engine (classic or
// sharded) is left at the library default.
type simSpec struct {
	name string
	n    int
	// joinRate > 0 builds the overlay by joins through random live members
	// at this many joins per virtual second; 0 bulk-builds it.
	joinRate float64
	netOpts  []netsim.Option
	balancer bool
	hotCache bool
	nkeys    int
	theta    float64 // Zipf exponent of key popularity; 0 = uniform
	mix      rates
	// virtPerWall sets the measured virtual window: this many virtual
	// seconds per requested wall second. The window is a fixed virtual
	// timeline, so every run of a seed does the same work and run_wall_s
	// compares like with like.
	virtPerWall float64
	// udpPass adds the real-socket pass (udpPass) to the traced run.
	udpPass bool
}

var simSpecs = map[string]simSpec{
	"churn-maint": {
		name: "churn-maint", n: 5000, nkeys: 500,
		mix:         rates{lookup: 150, get: 120, put: 120, join: 2, leave: 2},
		virtPerWall: 1.7,
	},
	"dht-zipf-rw": {
		name: "dht-zipf-rw", n: 1000, balancer: true, hotCache: true,
		nkeys: 1000, theta: 1.0,
		mix:         rates{lookup: 100, get: 2000, put: 200},
		virtPerWall: 4,
	},
	"lan-join": {
		name: "lan-join", n: 1000, joinRate: 50, nkeys: 500,
		netOpts: []netsim.Option{netsim.WithLatency(netsim.ClusteredLatency{
			ClusterSize: 32, Near: 200 * time.Microsecond, Far: 2 * time.Millisecond})},
		mix:         rates{lookup: 100, get: 50, put: 50},
		virtPerWall: 11,
		udpPass:     true,
	},
}

// deploySeed builds every sim deployment: node IDs, profiles, link
// latencies, the join order of join-built overlays, and the preload. The
// deployment is the fixed testbed; --seed varies the workload played on it
// (operation stream and churn), so run-to-run spread measures the system
// under different load, not different overlays.
const deploySeed = 1

const (
	bulkSettle  = 5 * time.Second  // virtual settle after a bulk build
	preloadCap  = 30 * time.Second // virtual cap on the preload phase
	settleAfter = 2 * time.Second  // virtual settle between preload and window
	convergeCap = 60 * time.Second // virtual cap on join convergence after the last join
	drainCap    = 5 * time.Second  // operations unfinished this long after the window count as failed
)

// simRun is one built cluster with its DHT services and workload state.
type simRun struct {
	spec simSpec
	seed int64
	c    *simrt.Cluster
	svcs []*dht.Service // by transport address
	led  *ledger
	tr   *tracer // nil in untraced runs

	// mu guards rec, inflight and pending: operation callbacks run on the
	// engine's goroutines, which are several under the sharded engine.
	mu       sync.Mutex
	rec      *recorder
	inflight []int32 // in-flight operations each node takes part in, by address
	pending  [numKinds]int

	// convergeS is the virtual time from the first join until the
	// invariant checkers held on three consecutive 1-s samples (join-built
	// workloads only).
	convergeS float64
}

// newSimRun builds, settles and preloads a cluster and returns it with the
// wall time that took. Checker passes during join convergence are not
// counted.
func newSimRun(spec simSpec, seed int64, tr *tracer) (*simRun, time.Duration, error) {
	start := time.Now()
	var paused time.Duration
	opts := simrt.Options{
		N:       spec.n,
		Seed:    seed,
		Config:  core.Config{Balancer: spec.balancer},
		NetOpts: spec.netOpts,
		Bulk:    spec.joinRate == 0,
	}
	if spec.joinRate > 0 {
		opts.N = 1
	}
	c := simrt.New(opts)
	r := &simRun{spec: spec, seed: seed, c: c, led: newLedger(spec.nkeys), tr: tr, rec: &recorder{}}
	for _, n := range c.Nodes {
		r.attach(n)
	}
	if spec.joinRate == 0 {
		c.StartAll()
		c.Run(bulkSettle)
	} else {
		c.Nodes[0].Start()
		rng := rand.New(rand.NewSource(seed ^ 0x6a6f696e)) // "join"
		t0 := c.Now()
		t := t0
		for i := 1; i < spec.n; i++ {
			t += time.Duration(rng.ExpFloat64() / spec.joinRate * float64(time.Second))
			c.RunUntil(t)
			if n := c.SpawnJoin(); n != nil {
				r.attach(n)
			}
		}
		eng := scenario.NewEngine(c, scenario.Options{Checkers: scenario.AllCheckers()})
		streak := 0
		var healthyAt time.Duration
		end := c.Now() + convergeCap
		for streak < 3 && c.Now() < end {
			c.Run(time.Second)
			p0 := time.Now()
			healthy := len(eng.CheckNow()) == 0
			paused += time.Since(p0)
			switch {
			case !healthy:
				streak = 0
			case streak == 0:
				healthyAt = c.Now()
				streak = 1
			default:
				streak++
			}
		}
		if streak < 3 {
			healthyAt = c.Now()
		}
		r.convergeS = (healthyAt - t0).Seconds()
	}
	if err := r.preload(); err != nil {
		return nil, 0, err
	}
	c.Run(settleAfter)
	return r, time.Since(start) - paused, nil
}

// attach gives a node its DHT service and, in traced runs, its handler
// wrapper.
func (r *simRun) attach(n *core.Node) {
	s := dht.Attach(n)
	s.HotCache = r.spec.hotCache
	addr := int(n.Addr())
	r.mu.Lock()
	for len(r.svcs) <= addr {
		r.svcs = append(r.svcs, nil)
		r.inflight = append(r.inflight, 0)
	}
	r.mu.Unlock()
	r.svcs[addr] = s
	if r.tr != nil {
		r.tr.wrapSim(r.c, n)
	}
}

// preload writes every key once, concurrently from random live origins,
// retrying writes that fail.
func (r *simRun) preload() error {
	rng := rand.New(rand.NewSource(r.seed ^ 0x7072656c)) // "prel"
	todo := make([]int, r.spec.nkeys)
	for i := range todo {
		todo[i] = i
	}
	for attempt := 0; attempt < 3 && len(todo) > 0; attempt++ {
		var failed []int
		outstanding := len(todo)
		for _, k := range todo {
			k := k
			alive := r.c.AliveNodes()
			origin := alive[rng.Intn(len(alive))]
			r.svcs[origin.Addr()].Put(keyName(k), r.led.nextWrite(k), func(err error) {
				r.mu.Lock()
				defer r.mu.Unlock()
				outstanding--
				if err != nil {
					failed = append(failed, k)
				}
			})
		}
		end := r.c.Now() + preloadCap
		for r.c.Now() < end {
			r.mu.Lock()
			left := outstanding
			r.mu.Unlock()
			if left == 0 {
				break
			}
			r.c.Run(100 * time.Millisecond)
		}
		todo = failed
	}
	if len(todo) > 0 {
		return fmt.Errorf("preload: %d of %d keys could not be written", len(todo), r.spec.nkeys)
	}
	return nil
}

// counters is a snapshot of every public counter the benchmark diffs
// over the window.
type counters struct {
	at      time.Duration
	net     netsim.Stats
	events  uint64
	core    core.Stats
	plane   svc.Stats
	dht     dht.Stats
	msgsIn  []uint64 // per node, in c.Nodes order
	alive   []bool
	nAlive  int
	mallocs uint64
}

func (r *simRun) snapshot() counters {
	c := r.c
	s := counters{at: c.Now(), net: c.Net.Stats(), events: c.Events(), nAlive: c.AliveCount()}
	s.msgsIn = make([]uint64, len(c.Nodes))
	s.alive = make([]bool, len(c.Nodes))
	for i, n := range c.Nodes {
		s.core.Add(n.Stats)
		s.msgsIn[i] = n.Stats.MsgsIn
		s.alive[i] = c.Alive(n)
		d := r.svcs[n.Addr()]
		addPlane(&s.plane, d.Plane().Stats)
		addDHT(&s.dht, d.Stats)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	return s
}

func addPlane(dst *svc.Stats, o svc.Stats) {
	dst.CallsStarted += o.CallsStarted
	dst.Responses += o.Responses
	dst.Retries += o.Retries
	dst.Timeouts += o.Timeouts
	dst.Served += o.Served
	dst.Unhandled += o.Unhandled
}

func addDHT(dst *dht.Stats, o dht.Stats) {
	dst.PutsServed += o.PutsServed
	dst.GetsServed += o.GetsServed
	dst.Replicas += o.Replicas
	dst.Consults += o.Consults
	dst.CacheServes += o.CacheServes
	dst.Invalidations += o.Invalidations
	dst.Fanouts += o.Fanouts
}

// windowOut is what one measured window produced.
type windowOut struct {
	w         time.Duration // virtual window length
	wall      time.Duration // wall time to play the window, pauses excluded
	cpu       time.Duration // process CPU over the window, pauses excluded
	gcCPU     time.Duration // GC CPU over the window, pauses excluded
	issued    int           // user operations issued in the window
	before    counters
	after     counters
	liveBytes float64 // live heap per alive node at mid-window
}

// window plays the operation stream open loop over a virtual window of
// length w: each op is issued at its due virtual time. mid runs once at
// mid-window with the wall clock paused. In-flight operations are then
// completed outside the timed window.
func (r *simRun) window(ops []op, w time.Duration, mid func()) windowOut {
	c := r.c
	t0 := c.Now()
	out := windowOut{w: w}
	if r.tr != nil {
		r.tr.phase = phaseWindow
	}
	out.before = r.snapshot()
	var paused, pausedCPU, pausedGC time.Duration
	wall0, cpu0, gc0 := time.Now(), cpuTime(), gcCPUTime()
	midDone := false
	runMid := func() {
		r.step(t0 + w/2)
		p0, pc0, pg0 := time.Now(), cpuTime(), gcCPUTime()
		out.liveBytes = float64(liveHeap()) / float64(c.AliveCount())
		if mid != nil {
			mid()
		}
		paused += time.Since(p0)
		pausedCPU += cpuTime() - pc0
		pausedGC += gcCPUTime() - pg0
		midDone = true
	}
	for _, o := range ops {
		due := t0 + o.due
		if !midDone && due >= t0+w/2 {
			runMid()
		}
		r.step(due)
		if r.issue(o, due) {
			out.issued++
		}
	}
	if !midDone {
		runMid()
	}
	r.step(t0 + w)
	out.wall = time.Since(wall0) - paused
	out.cpu = cpuTime() - cpu0 - pausedCPU
	out.gcCPU = gcCPUTime() - gc0 - pausedGC
	if r.tr != nil {
		r.tr.phase = phaseDone
	}
	out.after = r.snapshot()
	end := c.Now() + drainCap
	for r.inFlight() > 0 && c.Now() < end {
		c.Run(100 * time.Millisecond)
	}
	r.mu.Lock()
	for k, n := range r.pending {
		r.rec.fails[k] += n
	}
	r.pending = [numKinds]int{}
	r.mu.Unlock()
	return out
}

// step advances the cluster to t; traced runs record it as a span.
func (r *simRun) step(t time.Duration) {
	if r.tr != nil && r.tr.phase == phaseWindow {
		r.tr.stepBegin()
		r.c.RunUntil(t)
		r.tr.stepEnd()
		return
	}
	r.c.RunUntil(t)
}

func (r *simRun) inFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.pending {
		n += p
	}
	return n
}

// begin marks an operation in flight on its nodes (churn spares them).
func (r *simRun) begin(k opKind, addrs ...uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec.attempts[k]++
	r.pending[k]++
	for _, a := range addrs {
		r.inflight[a]++
	}
}

// end must be called with r.mu held.
func (r *simRun) end(k opKind, addrs ...uint64) {
	r.pending[k]--
	for _, a := range addrs {
		r.inflight[a]--
	}
}

// issue starts one operation at virtual time due and reports whether it
// was a user operation.
func (r *simRun) issue(o op, due time.Duration) bool {
	c := r.c
	alive := c.AliveNodes()
	origin := alive[o.origin%uint64(len(alive))]
	oaddr := origin.Addr()
	switch o.kind {
	case opLookup:
		tgt := alive[o.target%uint64(len(alive))]
		if tgt == origin {
			tgt = alive[(o.target+1)%uint64(len(alive))]
		}
		target, taddr := tgt.ID(), tgt.Addr()
		r.begin(opLookup, oaddr, taddr)
		origin.Lookup(target, proto.AlgoG, func(res core.LookupResult) {
			lat := origin.Now() - due
			r.mu.Lock()
			defer r.mu.Unlock()
			r.end(opLookup, oaddr, taddr)
			if res.Status == core.LookupFound && res.Best.ID == target {
				r.rec.ok(opLookup, lat)
				r.rec.hops = append(r.rec.hops, float64(res.Hops))
			} else {
				r.rec.fail(opLookup)
			}
			r.tr.opSpan(opLookup, due, due+lat)
		})
	case opGet:
		key := o.key
		r.begin(opGet, oaddr)
		r.svcs[oaddr].Get(keyName(key), func(v []byte, err error) {
			lat := origin.Now() - due
			r.mu.Lock()
			defer r.mu.Unlock()
			r.end(opGet, oaddr)
			if err != nil {
				r.rec.fail(opGet)
			} else if bad := r.led.check(key, v); bad != nil {
				r.rec.fail(opGet)
				r.rec.wrongAnswer("get: %v", bad)
			} else {
				r.rec.ok(opGet, lat)
			}
			r.tr.opSpan(opGet, due, due+lat)
		})
	case opPut:
		r.begin(opPut, oaddr)
		r.svcs[oaddr].Put(keyName(o.key), r.led.nextWrite(o.key), func(err error) {
			lat := origin.Now() - due
			r.mu.Lock()
			defer r.mu.Unlock()
			r.end(opPut, oaddr)
			if err != nil {
				r.rec.fail(opPut)
			} else {
				r.rec.ok(opPut, lat)
			}
			r.tr.opSpan(opPut, due, due+lat)
		})
	case opJoin:
		if n := c.SpawnJoin(); n != nil {
			r.attach(n)
		}
		return false
	case opLeave:
		// Fail-stop a live node that no in-flight operation runs through
		// as origin or target, so every failure counted is the overlay's.
		if len(alive) <= 2 {
			return false
		}
		start := o.origin % uint64(len(alive))
		for i := uint64(0); i < uint64(len(alive)); i++ {
			n := alive[(start+i)%uint64(len(alive))]
			if r.inflight[n.Addr()] == 0 {
				c.Kill(n)
				break
			}
		}
		return false
	}
	return true
}

// nodeLoads returns, for each node alive for the whole window, its
// inbound messages per virtual second.
func nodeLoads(a, b counters, w time.Duration) []float64 {
	var rates []float64
	for i := range a.msgsIn {
		if a.alive[i] && b.alive[i] {
			rates = append(rates, float64(b.msgsIn[i]-a.msgsIn[i])/w.Seconds())
		}
	}
	return rates
}

// runSim runs one sim workload: the end-to-end metrics pooled over
// repetitions, or the per-layer ledger from an untraced and a traced pass
// of one window.
func runSim(spec simSpec, cfg runConfig, rep *report) (*recorder, error) {
	w := time.Duration(float64(cfg.seconds) / reps * spec.virtPerWall * float64(time.Second))
	if cfg.trace {
		return traceSim(spec, cfg, w, genOps(subSeed(cfg.seed, 0), spec.mix, w, spec.nkeys, spec.theta), rep)
	}
	var e endToEnd
	for i := 0; i < reps; i++ {
		runtime.GC() // release the previous repetition's cluster
		r, took, err := newSimRun(spec, deploySeed, nil)
		if err != nil {
			return nil, err
		}
		out := r.window(genOps(subSeed(cfg.seed, i), spec.mix, w, spec.nkeys, spec.theta), w, nil)
		a, b := out.before, out.after
		e.setup = append(e.setup, took.Seconds())
		e.wall = append(e.wall, out.wall.Seconds())
		e.cpuPerOp = append(e.cpuPerOp, float64(out.cpu.Microseconds())/float64(out.issued))
		e.live = append(e.live, out.liveBytes)
		aliveMean := float64(a.nAlive+b.nAlive) / 2
		e.msgRate = append(e.msgRate, float64(b.net.Sent-a.net.Sent)/aliveMean/w.Seconds())
		e.loads = append(e.loads, nodeLoads(a, b, w)...)
		e.rec.absorb(r.rec)
	}
	e.report(rep)
	return &e.rec, nil
}

// reportOps fills the latency and success metrics shared by every
// workload.
func reportOps(rep *report, rec *recorder) {
	lk, gt, pt := rec.lat[opLookup], rec.lat[opGet], rec.lat[opPut]
	rep.set("lookup_p50_ms", "ms", quantile(lk, 0.5), len(lk))
	rep.set("lookup_p99_ms", "ms", quantile(lk, 0.99), len(lk))
	rep.set("lookup_ok_pct", "%", okPct(rec.attempts[opLookup], rec.fails[opLookup]), rec.attempts[opLookup])
	rep.set("lookup_hops_mean", "hops", mean(rec.hops), len(rec.hops))
	rep.set("get_p50_ms", "ms", quantile(gt, 0.5), len(gt))
	rep.set("get_p99_ms", "ms", quantile(gt, 0.99), len(gt))
	rep.set("put_p99_ms", "ms", quantile(pt, 0.99), len(pt))
	dhtAttempts := rec.attempts[opGet] + rec.attempts[opPut]
	rep.set("op_ok_pct", "%", okPct(dhtAttempts, rec.fails[opGet]+rec.fails[opPut]), dhtAttempts)
}
