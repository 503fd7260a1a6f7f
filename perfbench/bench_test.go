package main

import (
	"reflect"
	"testing"
	"time"
)

// smallChurn is a scaled-down churn-maint: same code path, seconds to run.
var smallChurn = simSpec{
	name: "small-churn", n: 200, nkeys: 50,
	mix:         rates{lookup: 50, get: 20, put: 20, join: 2, leave: 2},
	virtPerWall: 1,
}

// virtualMetrics runs one untraced window of spec and returns every
// metric computed in virtual time, plus the run's counter digest.
func virtualMetrics(t *testing.T, spec simSpec, seed int64) (map[string]metric, string) {
	t.Helper()
	w := 3 * time.Second
	r, _, err := newSimRun(spec, deploySeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := r.window(genOps(seed, spec.mix, w, spec.nkeys, spec.theta), w, nil)
	rep := newReport()
	reportOps(rep, r.rec)
	rep.set("node_load_p99", "msgs/s", quantile(nodeLoads(out.before, out.after, w), 0.99), 0)
	rep.set("msgs", "count", float64(out.after.net.Sent-out.before.net.Sent), 0)
	if len(r.rec.wrong) > 0 {
		t.Fatalf("wrong answers: %v", r.rec.wrong)
	}
	return rep.metrics, digest(r, out)
}

func TestSameSeedIsBitIdentical(t *testing.T) {
	m1, d1 := virtualMetrics(t, smallChurn, 7)
	m2, d2 := virtualMetrics(t, smallChurn, 7)
	if d1 != d2 {
		t.Fatalf("counters differ between runs of one seed:\n%s\n%s", d1, d2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("virtual-time metrics differ between runs of one seed:\n%v\n%v", m1, m2)
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	w := 10 * time.Second
	a := genOps(1, smallChurn.mix, w, smallChurn.nkeys, 1.0)
	b := genOps(2, smallChurn.mix, w, smallChurn.nkeys, 1.0)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 generated the same operation stream")
	}
	if c := genOps(1, smallChurn.mix, w, smallChurn.nkeys, 1.0); !reflect.DeepEqual(a, c) {
		t.Fatal("seed 1 generated two different operation streams")
	}
	_, d1 := virtualMetrics(t, smallChurn, 1)
	_, d2 := virtualMetrics(t, smallChurn, 2)
	if d1 == d2 {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}

func TestTracedPassReplaysUntraced(t *testing.T) {
	rep := newReport()
	w := 3 * time.Second
	rec, err := traceSim(smallChurn, runConfig{traceDir: t.TempDir()}, w,
		genOps(3, smallChurn.mix, w, smallChurn.nkeys, 0), rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.wrong) > 0 {
		t.Fatalf("wrong answers: %v", rec.wrong)
	}
	// Every layer a churn workload exercises must have been measured: a
	// metric the run never set reads 0.
	for _, name := range []string{
		"sim.events", "sim.ns_per_event", "sim.schedule_fire_ns", "netsim.datagrams",
		"core.handle_ns", "core.handle_share", "core.handle_ns.ping", "core.msgs_in_per_node_s.ping",
		"core.msgs_in_per_node_s.lookup-request", "rtable.entries_per_node", "rtable.upsert_ns",
		"rtable.nearest_ns", "routing.route_ns", "proto.encode_ns.ping", "proto.decode_ns.ping",
		"proto.bytes_per_msg", "runtime.allocs_per_event",
	} {
		if m, ok := rep.metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("per-layer metric %s not measured (%v)", name, m.Value)
		}
	}
}

func TestLedgerRejectsUnwrittenValues(t *testing.T) {
	l := newLedger(3)
	v1 := l.nextWrite(1)
	if err := l.check(1, v1); err != nil {
		t.Fatalf("written value rejected: %v", err)
	}
	for _, bad := range [][]byte{valueFor(2, 1), valueFor(1, 2), []byte("garbage"), nil} {
		if l.check(1, bad) == nil {
			t.Errorf("value %q accepted for key 1", bad)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
}

func TestUDPPassMeasuresWireLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sockets")
	}
	rep := newReport()
	rec, err := udpPass(runConfig{seed: 1, seconds: 5, traceDir: t.TempDir()}, newLayerReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if attempted, _ := rec.totals(); attempted == 0 {
		t.Fatal("no operation issued")
	}
	if len(rec.wrong) > 0 {
		t.Fatalf("wrong answers: %v", rec.wrong)
	}
	for _, name := range []string{
		"udptransport.msgs_per_node_s", "udptransport.cpu_us_per_op", "udptransport.syscalls_per_msg",
		"udptransport.msgs_per_flush", "udptransport.loop_wait_us.p50", "bench.late_ms.max",
	} {
		if m, ok := rep.metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("per-layer metric %s not measured (%v)", name, m.Value)
		}
	}
}
