// Command perfbench is the TreeP benchmark: one workload per run, generated
// from a seed, driven through the library's public functions only. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it repeats
// the run with wrappers around each layer's entry points and prints the
// per-layer metrics. Either way the last line of standard output is one
// JSON object, and a wrong answer makes the exit status non-zero.
//
//	go run . --workload churn-maint --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics with the sample count each was computed from,
// for the human-readable lines printed before the JSON result.
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric. Undefined values (no samples) read 0.
func (r *report) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// print writes one line per metric: name, value, unit, sample count.
func (r *report) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-40s %14.4f %-12s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
}

// reps is how many windows an end-to-end run plays, each on a freshly set
// up deployment and with its own operation stream. The wall-clock metrics
// are medians over the repetitions, so a burst of noise from the machine
// moves one repetition, not the result; everything counted is pooled, so
// one run samples reps independent windows. Each window is --seconds/reps
// of wall time on the recording machine.
const reps = 5

// subSeed is the operation-stream seed of repetition i of a run.
func subSeed(seed int64, i int) int64 { return seed*reps + int64(i) }

// endToEnd pools the repetitions of one end-to-end run.
type endToEnd struct {
	setup, wall, cpuPerOp, live []float64 // one per repetition
	msgRate                     []float64 // datagrams per alive node per second, one per repetition
	loads                       []float64 // inbound messages per second, one per node per repetition
	rec                         recorder
}

// report sets every end-to-end metric.
func (e *endToEnd) report(rep *report) {
	rep.set("setup_s", "s", median(e.setup), len(e.setup))
	rep.set("run_wall_s", "s", median(e.wall), len(e.wall))
	rep.set("cpu_us_per_op", "us", median(e.cpuPerOp), len(e.cpuPerOp))
	reportOps(rep, &e.rec)
	rep.set("msgs_per_node_s", "msgs/node/s", mean(e.msgRate), len(e.msgRate))
	rep.set("node_load_p99", "msgs/s", quantile(e.loads, 0.99), len(e.loads))
	rep.set("live_bytes_per_node", "B", median(e.live), len(e.live))
}

// workloadFn runs one workload and fills the report.
type workloadFn func(cfg runConfig, rep *report) (*recorder, error)

// runConfig is the command line of one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

var workloads = map[string]workloadFn{
	"churn-maint": func(c runConfig, r *report) (*recorder, error) { return runSim(simSpecs["churn-maint"], c, r) },
	"dht-zipf-rw": func(c runConfig, r *report) (*recorder, error) { return runSim(simSpecs["dht-zipf-rw"], c, r) },
	"lan-join":    func(c runConfig, r *report) (*recorder, error) { return runSim(simSpecs["lan-join"], c, r) },
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured window, in wall seconds on the recording machine")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	rep := newReport()
	rec, err := fn(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.print()
	attempted, failed := rec.totals()
	for _, w := range rec.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", w)
	}
	res := result{Correct: len(rec.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: rep.metrics}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || attempted == 0 {
		os.Exit(1)
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUTime returns the CPU time the Go runtime estimates it has spent in
// garbage collection. Differences over a window give the window's GC cost;
// MemStats.GCCPUFraction would average over the whole process life, set-up
// included.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
