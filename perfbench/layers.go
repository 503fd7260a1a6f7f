package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
	"treep/internal/scenario"
	"treep/internal/svc"
)

// traceTypes are the message types whose handler time, inbound rate and
// codec cost are reported by name: every type that is at least 1% of
// inbound messages in some workload, plus election-call and parent-claim,
// one half of the hierarchy-formation loop.
var traceTypes = []proto.MsgType{
	proto.TPing, proto.TPong, proto.THello, proto.TChildReport, proto.TReparent,
	proto.TElectionCall, proto.TParentClaim, proto.TBusLinkReq, proto.TBusLinkAck,
	proto.TLookupRequest, proto.TLookupReply, proto.TDHTStore, proto.TDHTStoreAck,
	proto.TDHTFetch, proto.TDHTFetchReply, proto.TDHTReplicate, proto.TDHTReplicateAck,
	proto.TRingProbe,
}

// loopTypes are the hierarchy-formation messages whose exchanges repeat
// in bursts on join-built overlays (child-report with reparent,
// election-call with parent-claim). Their counts from the start of the
// build to the window are reported per node, so the join phase is
// attributed by name too.
var loopTypes = []proto.MsgType{proto.TChildReport, proto.TReparent, proto.TElectionCall, proto.TParentClaim}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics every traced run reports; a
// metric of a layer the workload does not exercise reads 0.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.schedule_fire_ns", "ns"},
		{"netsim.datagrams", "count"}, {"netsim.bytes_per_datagram", "B"}, {"netsim.lost_dead", "count"},
		{"core.handle_ns", "ns"}, {"core.handle_share", "ratio"},
		{"core.elections_per_s", "1/s"}, {"core.reparents_per_s", "1/s"}, {"core.probes_per_s", "1/s"},
		{"core.lookups_dropped", "count"}, {"core.join_converge_s", "s"},
		{"rtable.entries_per_node", "count"}, {"rtable.upsert_ns", "ns"}, {"rtable.changed_since_ns", "ns"},
		{"rtable.nearest_ns", "ns"}, {"rtable.allocs_per_op", "count"},
		{"routing.route_ns", "ns"}, {"routing.route_allocs", "count"},
		{"proto.allocs_per_msg", "count"}, {"proto.bytes_per_msg", "B"},
		{"svc.retries_per_call", "ratio"}, {"svc.timeouts_per_call", "ratio"},
		{"dht.cache_hit_ratio", "ratio"}, {"dht.invalidations_per_put", "ratio"},
		{"dht.replicas_per_s", "1/s"}, {"dht.consults_per_get", "ratio"},
		{"runtime.allocs_per_event", "count"}, {"runtime.allocs_per_msg", "count"}, {"runtime.gc_cpu_fraction", "ratio"},
		{"scenario.violations_end", "count"},
		{"bench.trace_overhead_pct", "%"},
		// The real-socket pass (udpPass), played by lan-join only.
		{"udptransport.msgs_per_node_s", "msgs/node/s"}, {"udptransport.cpu_us_per_op", "us"},
		{"udptransport.allocs_per_msg", "count"},
		{"udptransport.syscalls_per_msg", "ratio"}, {"udptransport.msgs_per_flush", "ratio"},
		{"udptransport.loop_wait_us.p50", "us"}, {"udptransport.loop_wait_us.p99", "us"},
		{"udptransport.drops", "count"}, {"udptransport.decode_errs", "count"}, {"udptransport.oversize", "count"},
		{"bench.late_ms.p99", "ms"}, {"bench.late_ms.max", "ms"},
	}
	for _, t := range traceTypes {
		ms = append(ms,
			layerMetric{"core.handle_ns." + t.String(), "ns"},
			layerMetric{"core.msgs_in_per_node_s." + t.String(), "msgs/node/s"},
			layerMetric{"proto.encode_ns." + t.String(), "ns"},
			layerMetric{"proto.decode_ns." + t.String(), "ns"})
	}
	for _, t := range loopTypes {
		ms = append(ms, layerMetric{"core.setup_msgs_per_node." + t.String(), "msgs/node"})
	}
	return ms
}

// layerReport fills per-layer metrics by name; finish sets the rest of
// layerMetrics to 0.
type layerReport struct {
	rep   *report
	units map[string]string
}

func newLayerReport(rep *report) *layerReport {
	l := &layerReport{rep: rep, units: map[string]string{}}
	for _, m := range layerMetrics() {
		l.units[m.name] = m.unit
	}
	return l
}

func (l *layerReport) set(name string, v float64, samples int) {
	unit, ok := l.units[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	l.rep.set(name, unit, v, samples)
}

func (l *layerReport) finish() {
	for _, m := range layerMetrics() {
		if _, ok := l.rep.metrics[m.name]; !ok {
			l.rep.set(m.name, m.unit, 0, 0)
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// midCapture is the state the traced pass captures at mid-window for the
// ledger, with the ledger's results.
type midCapture struct {
	pending        int
	entriesPerNode float64
	nAlive         int
	rt             rtableCosts
	route          cost
	sched          cost
}

// captureMid measures the sim, rtable and routing ledgers on the live
// cluster: the kernel's pending-event count, the level-0 set of the node
// with the median set size, 64 random live nodes' tables, and the
// workload's own lookup targets.
func (r *simRun) captureMid(ops []op) midCapture {
	c := r.c
	var m midCapture
	if c.Engine != nil {
		m.pending = c.Engine.Pending()
	} else {
		m.pending = c.Kernel.Pending()
	}
	alive := c.AliveNodes()
	m.nAlive = len(alive)
	total := 0
	bySize := make([]*core.Node, len(alive))
	copy(bySize, alive)
	for _, n := range alive {
		total += n.Table().Size()
	}
	m.entriesPerNode = float64(total) / float64(len(alive))
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].Table().Level0.Len() < bySize[j].Table().Level0.Len() })
	var entries []rtable.Entry
	bySize[len(bySize)/2].Table().Level0.Each(func(e *rtable.Entry) { entries = append(entries, *e) })

	var targets []idspace.ID
	for _, o := range ops {
		if o.kind == opLookup && len(targets) < 256 {
			targets = append(targets, alive[o.target%uint64(len(alive))].ID())
		}
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x6c656467)) // "ledg"
	var nodes []*core.Node
	for i := 0; i < 64; i++ {
		nodes = append(nodes, alive[rng.Intn(len(alive))])
	}
	m.sched = simLedger(m.pending, r.seed)
	m.rt = rtableLedger(entries, targets, c.Now())
	m.route = routeLedger(nodes, targets)
	return m
}

// digest summarises everything a run computes in virtual time: the traced
// pass must reproduce the untraced one exactly.
func digest(r *simRun, out windowOut) string {
	rec := r.rec
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	return fmt.Sprintf("%+v|%+v|%d|%+v|%+v|%+v|%v|%v|%v|%v|%v",
		out.before.net, out.after.net, out.after.events-out.before.events, out.after.core,
		out.after.plane, out.after.dht, rec.attempts, rec.fails,
		sum(rec.lat[opLookup]), sum(rec.lat[opGet]), sum(rec.lat[opPut]))
}

// traceSim is the per-layer run of a sim workload: an untraced pass gives
// the reference wall time and runtime counters, then a traced pass of the
// same seed (which must play the identical virtual timeline) gives the
// spans, the message mix and the mid-window ledger.
func traceSim(spec simSpec, cfg runConfig, w time.Duration, ops []op, rep *report) (*recorder, error) {
	r1, _, err := newSimRun(spec, deploySeed, nil)
	if err != nil {
		return nil, err
	}
	out1 := r1.window(ops, w, nil)
	ref := digest(r1, out1)
	rec1 := r1.rec
	r1 = nil
	runtime.GC()

	tr := newTracer()
	r2, _, err := newSimRun(spec, deploySeed, tr)
	if err != nil {
		return nil, err
	}
	var mid midCapture
	out2 := r2.window(ops, w, func() { mid = r2.captureMid(ops) })
	if got := digest(r2, out2); got != ref {
		return nil, fmt.Errorf("the traced pass diverged from the untraced one:\n  untraced %s\n  traced   %s", ref, got)
	}
	eng := scenario.NewEngine(r2.c, scenario.Options{Checkers: scenario.AllCheckers()})
	violations := eng.CheckNow()
	m := tr.merge()
	pl := protoLedger(m.samples, m.count)

	l := newLayerReport(rep)
	a, b := out1.before, out1.after
	events := b.events - a.events
	sent := b.net.Sent - a.net.Sent
	secs := w.Seconds()
	aliveMean := float64(a.nAlive+b.nAlive) / 2
	l.set("sim.events", float64(events), 1)
	l.set("sim.ns_per_event", float64(out1.wall.Nanoseconds())/float64(events), int(events))
	l.set("sim.schedule_fire_ns", mid.sched.ns, mid.pending)
	l.set("netsim.datagrams", float64(sent), 1)
	l.set("netsim.bytes_per_datagram", ratio(b.net.Bytes-a.net.Bytes, sent), int(sent))
	l.set("netsim.lost_dead", float64(b.net.LostDead-a.net.LostDead), 1)

	reportHandlers(l, tr, m, aliveMean, secs)
	for _, t := range loopTypes {
		l.set("core.setup_msgs_per_node."+t.String(), float64(m.setup[t])/float64(a.nAlive), int(m.setup[t]))
	}
	reportCore(l, a.core, b.core, secs)
	l.set("core.join_converge_s", r2.convergeS, 1)

	l.set("rtable.entries_per_node", mid.entriesPerNode, mid.nAlive)
	l.set("rtable.upsert_ns", mid.rt.upsert.ns, 1)
	l.set("rtable.changed_since_ns", mid.rt.changed.ns, 1)
	l.set("rtable.nearest_ns", mid.rt.nearest.ns, 1)
	l.set("rtable.allocs_per_op", (mid.rt.upsert.allocs+mid.rt.changed.allocs+mid.rt.nearest.allocs)/3, 3)
	l.set("routing.route_ns", mid.route.ns, 1)
	l.set("routing.route_allocs", mid.route.allocs, 1)
	reportProto(l, pl)
	reportService(l, a.plane, b.plane, a.dht, b.dht, rec1, secs)

	l.set("runtime.allocs_per_event", ratio(b.mallocs-a.mallocs, events), int(events))
	l.set("runtime.allocs_per_msg", ratio(b.mallocs-a.mallocs, sent), int(sent))
	l.set("runtime.gc_cpu_fraction", out1.gcCPU.Seconds()/out1.cpu.Seconds(), 1)
	l.set("scenario.violations_end", float64(len(violations)), 1)
	l.set("bench.trace_overhead_pct", 100*(out2.wall.Seconds()-out1.wall.Seconds())/out1.wall.Seconds(), 2)
	rec := r2.rec // correctness covers both passes; they are identical by the digest
	if spec.udpPass {
		u, err := udpPass(cfg, l)
		if err != nil {
			return nil, fmt.Errorf("udp pass: %w", err)
		}
		rec.absorb(u)
	}
	l.finish()

	if err := tr.write(filepath.Join(cfg.traceDir, spec.name+".spans.csv.gz")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	printMix(m, aliveMean, secs)
	return rec, nil
}

// reportHandlers fills the core handler metrics from the spans: self time
// per inbound message (handler spans have no children), the handlers'
// share of the Cluster.Run steps, and per-type time and inbound rate.
func reportHandlers(l *layerReport, tr *tracer, m merged, aliveMean, secs float64) {
	var count uint64
	var ns int64
	for t := range m.count {
		count += m.count[t]
		ns += m.ns[t]
	}
	var stepNs int64
	for _, s := range tr.steps {
		stepNs += s.end - s.start
	}
	l.set("core.handle_ns", float64(ns)/float64(count), int(count))
	l.set("core.handle_share", float64(ns)/float64(stepNs), len(tr.steps))
	for _, t := range traceTypes {
		if m.count[t] == 0 {
			continue
		}
		l.set("core.handle_ns."+t.String(), float64(m.ns[t])/float64(m.count[t]), int(m.count[t]))
		l.set("core.msgs_in_per_node_s."+t.String(), float64(m.count[t])/aliveMean/secs, int(m.count[t]))
	}
}

// reportCore fills the protocol event rates from summed Node.Stats.
func reportCore(l *layerReport, a, b core.Stats, secs float64) {
	l.set("core.elections_per_s", float64(b.ElectionsStarted-a.ElectionsStarted)/secs, int(b.ElectionsStarted-a.ElectionsStarted))
	l.set("core.reparents_per_s", float64(b.Reparents-a.Reparents)/secs, int(b.Reparents-a.Reparents))
	l.set("core.probes_per_s", float64(b.ProbesSent-a.ProbesSent)/secs, int(b.ProbesSent-a.ProbesSent))
	l.set("core.lookups_dropped", float64(b.LookupsDropped-a.LookupsDropped), 1)
}

func reportProto(l *layerReport, pl protoCosts) {
	for _, t := range traceTypes {
		if !pl.measured[t] {
			continue
		}
		l.set("proto.encode_ns."+t.String(), pl.encode[t].ns, 1)
		l.set("proto.decode_ns."+t.String(), pl.decode[t].ns, 1)
	}
	l.set("proto.allocs_per_msg", pl.allocsPerMsg, int(pl.totalMsgsWeight))
	l.set("proto.bytes_per_msg", pl.bytesPerMsg, int(pl.totalMsgsWeight))
}

// reportService fills the svc and dht metrics from summed Stats deltas.
func reportService(l *layerReport, pa, pb svc.Stats, da, db dht.Stats, rec *recorder, secs float64) {
	calls := pb.CallsStarted - pa.CallsStarted
	gets, puts := uint64(rec.attempts[opGet]), uint64(rec.attempts[opPut])
	l.set("svc.retries_per_call", ratio(pb.Retries-pa.Retries, calls), int(calls))
	l.set("svc.timeouts_per_call", ratio(pb.Timeouts-pa.Timeouts, calls), int(calls))
	l.set("dht.cache_hit_ratio", ratio(db.CacheServes-da.CacheServes, gets), int(gets))
	l.set("dht.invalidations_per_put", ratio(db.Invalidations-da.Invalidations, puts), int(puts))
	l.set("dht.replicas_per_s", float64(db.Replicas-da.Replicas)/secs, int(db.Replicas-da.Replicas))
	l.set("dht.consults_per_get", ratio(db.Consults-da.Consults, gets), int(gets))
}

// printMix prints the inbound message mix by type, as rates per node, and
// its split into requests (lookups, DHT stores and fetches), replica
// pushes (replica maintenance and hot-key fan-out) and overlay
// maintenance (everything else).
func printMix(m merged, aliveMean, secs float64) {
	var total, request, replica uint64
	for t, c := range m.count {
		if c == 0 {
			continue
		}
		total += c
		switch proto.MsgType(t) {
		case proto.TLookupRequest, proto.TLookupReply, proto.TDHTStore, proto.TDHTStoreAck,
			proto.TDHTFetch, proto.TDHTFetchReply:
			request += c
		case proto.TDHTReplicate, proto.TDHTReplicateAck:
			replica += c
		}
	}
	if total == 0 {
		return
	}
	pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
	for t, c := range m.count {
		if c > 0 {
			fmt.Printf("mix %-18s %6.2f%% %10.3f msgs/node/s\n", proto.MsgType(t), pct(c), float64(c)/aliveMean/secs)
		}
	}
	fmt.Printf("mix requests %.2f%%, replica pushes %.2f%%, maintenance %.2f%%\n",
		pct(request), pct(replica), pct(total-request-replica))
}
