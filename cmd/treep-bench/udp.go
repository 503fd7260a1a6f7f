package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/udptransport"
)

// udpResult is one measurement over the real-socket cluster.
type udpResult struct {
	batched  bool // whether the kernel batch path was actually active
	nodes    int
	wall     time.Duration
	msgs     uint64 // datagrams sent across the cluster in the window
	recvMsgs uint64
	sendSys  uint64
	recvSys  uint64
	allocs   uint64 // heap allocations across the window (whole process)
	peakHeap uint64
	gets     uint64
	misses   uint64
	drops    uint64
	decErrs  uint64
	oversize uint64
}

func (r udpResult) msgsPerSec() float64 {
	return float64(r.msgs) / r.wall.Seconds()
}

func (r udpResult) allocsPerMsg() float64 {
	if r.msgs == 0 {
		return 0
	}
	return float64(r.allocs) / float64(r.msgs)
}

func (r udpResult) syscallsPerMsg() float64 {
	if r.msgs == 0 {
		return 0
	}
	return float64(r.sendSys+r.recvSys) / float64(r.msgs)
}

func (r udpResult) missPct() float64 {
	if r.gets == 0 {
		return 0
	}
	return 100 * float64(r.misses) / float64(r.gets)
}

// sumStats totals the wire counters across the cluster.
func sumStats(trs []*udptransport.Transport) udptransport.Snapshot {
	var t udptransport.Snapshot
	for _, tr := range trs {
		s := tr.Stats()
		t.Recv += s.Recv
		t.Sent += s.Sent
		t.DecodeErrs += s.DecodeErrs
		t.Drops += s.Drops
		t.Oversize += s.Oversize
		t.RecvSyscalls += s.RecvSyscalls
		t.SendSyscalls += s.SendSyscalls
		t.Flushes += s.Flushes
	}
	return t
}

// runUDPCluster brings up an n-node loopback cluster, preloads records,
// drives DHT reads for the window and returns the wire-level measurement.
// rate > 0 paces each worker to that many gets/s, so allocs/msg charges
// a fixed amount of application work; rate 0 is closed-loop saturation,
// where a faster wire serves more gets and is charged their allocations.
func runUDPCluster(n, workers, records, rate int, window time.Duration) udpResult {
	trs := make([]*udptransport.Transport, 0, n)
	svcs := make([]*dht.Service, n)
	for i := 0; i < n; i++ {
		cfg := core.Defaults()
		cfg.ID = idspace.FromFraction((float64(i) + 0.5) / float64(n))
		// Saturation configuration: the keep-alive plane is driven as hard
		// as each node can consume it (SetPeriodic re-arms only after the
		// loop processes a tick, so the ping rate self-throttles to the
		// data path's capacity — which is exactly what this benchmark
		// measures). Failure detection is effectively disabled for the
		// window: a saturated node must score its real throughput, not
		// drown the measurement in expiry/repair traffic it caused itself.
		cfg.KeepAlive = 5 * time.Millisecond
		cfg.EntryTTL = 60 * time.Second
		cfg.SweepInterval = 10 * time.Second
		cfg.ChildReport = 200 * time.Millisecond
		cfg.ElectionMin = 50 * time.Millisecond
		cfg.ElectionMax = 200 * time.Millisecond
		cfg.LookupTimeout = 2 * time.Second
		tr, err := udptransport.Listen(cfg, "127.0.0.1:0", int64(i+1))
		if err != nil {
			fatal("udp: listen node %d: %v", i, err)
		}
		trs = append(trs, tr)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i, tr := range trs {
		i := i
		if err := tr.Do(func(nd *core.Node) { svcs[i] = dht.Attach(nd) }); err != nil {
			fatal("udp: attach dht %d: %v", i, err)
		}
	}
	boot := trs[0].OverlayAddr()
	for i, tr := range trs {
		var err error
		if i == 0 {
			err = tr.Start()
		} else {
			err = tr.Join(boot)
		}
		if err != nil {
			fatal("udp: start node %d: %v", i, err)
		}
	}

	// Convergence: every node must know at least one peer before the
	// workload starts, else early gets measure join races, not the wire.
	deadline := time.Now().Add(10 * time.Second)
	for {
		connected := 0
		for _, tr := range trs {
			var l0 int
			_ = tr.Do(func(nd *core.Node) { l0 = nd.Table().Level0.Len() })
			if l0 > 0 {
				connected++
			}
		}
		if connected == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)

	// Preload the records the read workers will fetch.
	keys := make([][]byte, records)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("udp-rec-%d", k))
		stored := false
		for attempt := 0; attempt < 3 && !stored; attempt++ {
			errCh := make(chan error, 1)
			owner := trs[k%n]
			if err := owner.Do(func(*core.Node) {
				svcs[k%n].Put(keys[k], []byte(fmt.Sprintf("value-%d", k)), func(e error) { errCh <- e })
			}); err != nil {
				fatal("udp: put %d: %v", k, err)
			}
			select {
			case err := <-errCh:
				stored = err == nil
			case <-time.After(5 * time.Second):
			}
			if !stored {
				time.Sleep(300 * time.Millisecond)
			}
		}
		if !stored {
			fatal("udp: record %d never stored; overlay unhealthy", k)
		}
	}

	// Measurement window: closed-loop readers issue a get, wait for its
	// callback, issue the next — saturating the request plane while the
	// accelerated keep-alive timers load the maintenance plane.
	var gets, misses atomic.Uint64
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			// The reply channel and timeout timer live for the worker's
			// whole life: the bench must not charge its own plumbing to
			// the allocs/msg it measures. A timed-out channel may still
			// receive a late callback, so it is abandoned, not reused.
			done := make(chan error, 1)
			timeout := time.NewTimer(time.Hour)
			defer timeout.Stop()
			var pace *time.Ticker
			if rate > 0 {
				pace = time.NewTicker(time.Second / time.Duration(rate))
				defer pace.Stop()
			}
			for !stopped() {
				if pace != nil {
					select {
					case <-pace.C:
					case <-stop:
						return
					}
				}
				i := rng.Intn(n)
				key := keys[rng.Intn(len(keys))]
				ch := done
				if err := trs[i].Do(func(*core.Node) {
					svcs[i].GetRecord(key, func(_ dht.Record, e error) { ch <- e })
				}); err != nil {
					return // cluster shutting down
				}
				timeout.Reset(5 * time.Second)
				var err error
				select {
				case err = <-done:
				case <-timeout.C:
					err = fmt.Errorf("get timed out")
					done = make(chan error, 1)
				}
				if !timeout.Stop() {
					select {
					case <-timeout.C:
					default:
					}
				}
				gets.Add(1)
				if err != nil {
					misses.Add(1)
				}
			}
		}(w)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	before := sumStats(trs)
	hw := watchHeap()
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	wall := time.Since(start)
	after := sumStats(trs)
	peak := hw.Stop()
	runtime.ReadMemStats(&ms)

	return udpResult{
		batched:  trs[0].Batched(),
		nodes:    n,
		wall:     wall,
		msgs:     after.Sent - before.Sent,
		recvMsgs: after.Recv - before.Recv,
		sendSys:  after.SendSyscalls - before.SendSyscalls,
		recvSys:  after.RecvSyscalls - before.RecvSyscalls,
		allocs:   ms.Mallocs - mallocs0,
		peakHeap: peak,
		gets:     gets.Load(),
		misses:   misses.Load(),
		drops:    after.Drops - before.Drops,
		decErrs:  after.DecodeErrs - before.DecodeErrs,
		oversize: after.Oversize - before.Oversize,
	}
}

// udpScalePoint converts the measurement into a scale-table row.
// AllocsRun is normalised to allocations per 1000 messages: wall-clock
// workloads are not event-deterministic, but the per-message allocation
// cost is stable enough for benchguard's tolerance.
func udpScalePoint(r udpResult) ScalePoint {
	var allocsPerK uint64
	if r.msgs > 0 {
		allocsPerK = r.allocs * 1000 / r.msgs
	}
	return ScalePoint{
		Workload:      "udp",
		N:             r.nodes,
		MaxProcs:      runtime.GOMAXPROCS(0),
		WallSec:       r.wall.Seconds(),
		Events:        r.msgs,
		EventsPerS:    r.msgsPerSec(),
		AllocsRun:     allocsPerK,
		PeakHeapBytes: r.peakHeap,
		FailPct:       r.missPct(),
	}
}

// runUDP executes the real-socket benchmark: one cluster runs the
// workload, the table prints, and the row exports as udp-bench.{csv,json}
// under outDir.
func runUDP(n, workers, records, rate int, window time.Duration, outDir string) {
	load := "closed-loop"
	if rate > 0 {
		load = fmt.Sprintf("%d gets/s each", rate)
	}
	fmt.Printf("# Real-socket UDP bench — n=%d nodes, %d workers (%s), %d records, %v window, GOMAXPROCS=%d\n\n",
		n, workers, load, records, window, runtime.GOMAXPROCS(0))

	r := runUDPCluster(n, workers, records, rate, window)
	path := "batch"
	if !r.batched {
		path = "single"
	}
	fmt.Printf("| %6s | %5s | %9s | %9s | %12s | %10s | %7s | %6s |\n",
		"path", "nodes", "msgs", "msgs/s", "syscalls/msg", "allocs/msg", "gets/s", "miss%")
	fmt.Printf("| %6s | %5d | %9d | %9.0f | %12.3f | %10.1f | %7.0f | %6.2f |\n",
		path, r.nodes, r.msgs, r.msgsPerSec(), r.syscallsPerMsg(),
		r.allocsPerMsg(), float64(r.gets)/r.wall.Seconds(), r.missPct())
	if r.decErrs > 0 || r.oversize > 0 {
		fmt.Printf("note: %d decode errors, %d oversize rejects\n", r.decErrs, r.oversize)
	}

	if err := writeScaleAs(outDir, "udp-bench", []ScalePoint{udpScalePoint(r)}); err != nil {
		fatal("writing udp records: %v", err)
	}
	fmt.Printf("\nrecords: %s, %s\n",
		filepath.Join(outDir, "udp-bench.csv"), filepath.Join(outDir, "udp-bench.json"))
}
