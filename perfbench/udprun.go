package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/udptransport"
)

// The real-socket pass: udp-loopback, played inside lan-join's traced run.
// Default-config nodes on loopback join through one bootstrap, and one
// generator goroutine issues an open-loop mix in wall time. It is the only
// place the benchmark encodes bytes and crosses the kernel, so it is where
// the udptransport layer is measured.
//
// It is a per-layer measurement, not an end-to-end workload, for two
// reasons. Its wall-clock latency tail follows the machine: on a 2-vCPU
// virtual machine, with 8 nodes, the lookup p99 of 3-s windows ranged from
// 1.3 to 9.8 ms with the CPU steal of the moment, far outside any bound.
// And the overlay's hierarchy-formation loops run at link speed on
// loopback once they start (child-report with reparent, election-call with
// parent-claim: 2000 to 18000 msgs/node/s against a few hundred without
// them), so whether a window catches one is timing. The pass counts those
// bursts; it does not measure around them.
const (
	udpNodes   = 24
	udpKeys    = 200
	udpReady   = 20 * time.Second // wall cap on join convergence
	udpDrain   = 5 * time.Second  // operations unfinished this long after the window count as failed
	udpPreload = 20 * time.Second
)

// udpMix is the open-loop rate, in operations per wall second.
var udpMix = rates{lookup: 200, get: 200, put: 200}

// udpCluster is one running loopback deployment.
type udpCluster struct {
	trs  []*udptransport.Transport
	svcs []*dht.Service
	ids  []idspace.ID
	led  *ledger
	tr   *tracer

	mu      sync.Mutex // guards rec, pending and cut (callbacks run on every node's loop)
	rec     *recorder
	pending [numKinds]int
	cut     bool // the drain is over: late callbacks are ignored
}

func (u *udpCluster) close() {
	for _, t := range u.trs {
		t.Close()
	}
}

// do runs fn on node i's event loop; traced runs record the queue wait.
func (u *udpCluster) do(i int, fn func(n *core.Node)) error {
	if u.tr == nil {
		return u.trs[i].Do(fn)
	}
	called := u.tr.now()
	return u.trs[i].Do(func(n *core.Node) {
		u.tr.doWait(called, u.tr.now(), uint32(i))
		fn(n)
	})
}

// newUDPCluster starts the nodes, joins them through node 0, waits until
// the overlay resolves lookups, and preloads the keys. It returns the
// cluster and the wall time the set-up took.
func newUDPCluster(seed int64) (*udpCluster, time.Duration, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed ^ 0x75647073)) // "udps"
	u := &udpCluster{led: newLedger(udpKeys), rec: &recorder{}}
	for i := 0; i < udpNodes; i++ {
		cfg := core.Defaults()
		cfg.ID = idspace.ID(rng.Uint64())
		t, err := udptransport.Listen(cfg, "127.0.0.1:0", seed*1000+int64(i))
		if err != nil {
			u.close()
			return nil, 0, fmt.Errorf("listen node %d: %w", i, err)
		}
		u.trs = append(u.trs, t)
		u.ids = append(u.ids, cfg.ID)
	}
	u.svcs = make([]*dht.Service, udpNodes)
	for i := range u.trs {
		i := i
		if err := u.trs[i].Do(func(n *core.Node) { u.svcs[i] = dht.Attach(n) }); err != nil {
			u.close()
			return nil, 0, err
		}
	}
	boot := u.trs[0].OverlayAddr()
	for i, t := range u.trs {
		var err error
		if i == 0 {
			err = t.Start()
		} else {
			err = t.Join(boot)
		}
		if err != nil {
			u.close()
			return nil, 0, fmt.Errorf("start node %d: %w", i, err)
		}
	}
	if err := u.awaitReady(); err != nil {
		u.close()
		return nil, 0, err
	}
	if err := u.preload(rng); err != nil {
		u.close()
		return nil, 0, err
	}
	return u, time.Since(start), nil
}

// awaitReady polls until every node resolves a lookup for the next node's
// ID, so the window does not measure join races.
func (u *udpCluster) awaitReady() error {
	deadline := time.Now().Add(udpReady)
	for time.Now().Before(deadline) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		bad := 0
		for i := range u.trs {
			target := u.ids[(i+1)%udpNodes]
			wg.Add(1)
			err := u.trs[i].Do(func(n *core.Node) {
				n.Lookup(target, proto.AlgoG, func(res core.LookupResult) {
					if res.Status != core.LookupFound || res.Best.ID != target {
						mu.Lock()
						bad++
						mu.Unlock()
					}
					wg.Done()
				})
			})
			if err != nil {
				return err
			}
		}
		wg.Wait()
		if bad == 0 {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("loopback cluster did not converge within %v", udpReady)
}

// preload writes every key once from random nodes and waits for the acks.
func (u *udpCluster) preload(rng *rand.Rand) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for k := 0; k < udpKeys; k++ {
		k := k
		i := rng.Intn(udpNodes)
		val := u.led.nextWrite(k)
		wg.Add(1)
		err := u.trs[i].Do(func(n *core.Node) {
			u.svcs[i].Put(keyName(k), val, func(err error) {
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
				wg.Done()
			})
		})
		if err != nil {
			return err
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(udpPreload):
		return fmt.Errorf("preload did not finish within %v", udpPreload)
	}
	if failed > 0 {
		return fmt.Errorf("preload: %d of %d keys could not be written", failed, udpKeys)
	}
	return nil
}

// udpCounters is a snapshot of the public counters diffed over the window.
type udpCounters struct {
	wire    udptransport.Snapshot
	core    core.Stats
	mallocs uint64
}

func (u *udpCluster) snapshot() udpCounters {
	var s udpCounters
	for _, t := range u.trs {
		w := t.Stats()
		s.wire.Recv += w.Recv
		s.wire.Sent += w.Sent
		s.wire.DecodeErrs += w.DecodeErrs
		s.wire.Drops += w.Drops
		s.wire.Oversize += w.Oversize
		s.wire.RecvSyscalls += w.RecvSyscalls
		s.wire.SendSyscalls += w.SendSyscalls
		s.wire.Flushes += w.Flushes
		_ = t.Do(func(n *core.Node) { s.core.Add(n.Stats) }) // Do waits for fn
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	return s
}

// udpWindow is what one measured window produced.
type udpWindow struct {
	w      time.Duration // span the counters cover: the window, or longer if ops were still completing
	cpu    time.Duration
	issued int
	before udpCounters
	after  udpCounters
}

// window issues the stream open loop from one generator goroutine (this
// one): each op waits for its due wall time, and its latency counts from
// that time, so a stalled event loop delays the ops queued behind it.
func (u *udpCluster) window(ops []op, w time.Duration) (udpWindow, error) {
	out := udpWindow{w: w, before: u.snapshot()}
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, o := range ops {
		due := t0.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		u.rec.late = append(u.rec.late, float64(time.Since(due))/float64(time.Millisecond))
		if err := u.issue(o, due); err != nil {
			return out, err
		}
		out.issued++
	}
	deadline := time.Now().Add(udpDrain)
	for u.inFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	u.mu.Lock()
	for k, n := range u.pending {
		u.rec.fails[k] += n
	}
	u.cut = true
	u.mu.Unlock()
	if d := time.Until(t0.Add(w)); d > 0 {
		time.Sleep(d)
	}
	out.w = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	out.after = u.snapshot()
	return out, nil
}

func (u *udpCluster) inFlight() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, p := range u.pending {
		n += p
	}
	return n
}

// issue starts one operation on its origin's event loop.
func (u *udpCluster) issue(o op, due time.Time) error {
	i := int(o.origin % udpNodes)
	u.mu.Lock()
	u.rec.attempts[o.kind]++
	u.pending[o.kind]++
	u.mu.Unlock()
	finish := func(ok bool, wrong error, hops int) {
		lat := time.Since(due)
		u.mu.Lock()
		defer u.mu.Unlock()
		if u.cut {
			return
		}
		u.pending[o.kind]--
		switch {
		case wrong != nil:
			u.rec.fail(o.kind)
			u.rec.wrongAnswer("%s: %v", kindNames[o.kind], wrong)
		case !ok:
			u.rec.fail(o.kind)
		default:
			u.rec.ok(o.kind, lat)
			if o.kind == opLookup {
				u.rec.hops = append(u.rec.hops, float64(hops))
			}
		}
		if u.tr != nil {
			u.tr.opSpan(o.kind, due.Sub(u.tr.base), due.Sub(u.tr.base)+lat)
		}
	}
	switch o.kind {
	case opLookup:
		j := int(o.target % udpNodes)
		if j == i {
			j = (j + 1) % udpNodes
		}
		target := u.ids[j]
		return u.do(i, func(n *core.Node) {
			n.Lookup(target, proto.AlgoG, func(res core.LookupResult) {
				finish(res.Status == core.LookupFound && res.Best.ID == target, nil, res.Hops)
			})
		})
	case opGet:
		key := o.key
		return u.do(i, func(*core.Node) {
			u.svcs[i].Get(keyName(key), func(v []byte, err error) {
				if err != nil {
					finish(false, nil, 0)
					return
				}
				u.mu.Lock()
				bad := u.led.check(key, v)
				u.mu.Unlock()
				finish(true, bad, 0)
			})
		})
	case opPut:
		u.mu.Lock()
		val := u.led.nextWrite(o.key)
		u.mu.Unlock()
		key := o.key
		return u.do(i, func(*core.Node) {
			u.svcs[i].Put(keyName(key), val, func(err error) { finish(err == nil, nil, 0) })
		})
	}
	return nil
}

// udpPass plays one window of the mix on a fresh loopback cluster, with
// every Transport.Do queue wait timed, and reports the udptransport layer
// and the generator's lateness. The counters cover the whole window,
// bursts included. It returns the pass's outcomes, so a wrong answer on
// real sockets fails the run.
func udpPass(cfg runConfig, l *layerReport) (*recorder, error) {
	w := time.Duration(cfg.seconds) * time.Second / reps
	ops := genOps(subSeed(cfg.seed, 0), udpMix, w, udpKeys, 0)
	u, _, err := newUDPCluster(deploySeed)
	if err != nil {
		return nil, err
	}
	defer u.close()
	tr := newTracer()
	u.tr = tr
	out, err := u.window(ops, w)
	if err != nil {
		return nil, err
	}
	a, b := out.before, out.after
	wa, wb := a.wire, b.wire
	sent := wb.Sent - wa.Sent
	secs := out.w.Seconds()
	l.set("udptransport.msgs_per_node_s", float64(sent)/udpNodes/secs, int(sent))
	l.set("udptransport.cpu_us_per_op", float64(out.cpu.Microseconds())/float64(out.issued), out.issued)
	l.set("udptransport.allocs_per_msg", ratio(b.mallocs-a.mallocs, sent), int(sent))
	l.set("udptransport.syscalls_per_msg", ratio(wb.SendSyscalls-wa.SendSyscalls+wb.RecvSyscalls-wa.RecvSyscalls, sent), int(sent))
	l.set("udptransport.msgs_per_flush", ratio(sent, wb.Flushes-wa.Flushes), int(wb.Flushes-wa.Flushes))
	var waits []float64
	for _, s := range tr.doWaits {
		waits = append(waits, float64(s.end-s.start)/float64(time.Microsecond))
	}
	l.set("udptransport.loop_wait_us.p50", quantile(waits, 0.5), len(waits))
	l.set("udptransport.loop_wait_us.p99", quantile(waits, 0.99), len(waits))
	l.set("udptransport.drops", float64(wb.Drops-wa.Drops), 1)
	l.set("udptransport.decode_errs", float64(wb.DecodeErrs-wa.DecodeErrs), 1)
	l.set("udptransport.oversize", float64(wb.Oversize-wa.Oversize), 1)
	u.mu.Lock()
	defer u.mu.Unlock()
	l.set("bench.late_ms.p99", quantile(u.rec.late, 0.99), len(u.rec.late))
	l.set("bench.late_ms.max", quantile(u.rec.late, 1), len(u.rec.late))
	fmt.Printf("udp pass: %d nodes, %d ops, %.1f msgs/node/s, %d elections, %d reparents in %.1f s\n",
		udpNodes, out.issued, float64(sent)/udpNodes/secs,
		b.core.ElectionsStarted-a.core.ElectionsStarted, b.core.Reparents-a.core.Reparents, secs)
	if err := tr.write(filepath.Join(cfg.traceDir, "udp-pass.spans.csv.gz")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return u.rec, nil
}
