// benchguard gates CI on substrate performance regressions: it compares
// a fresh scale-table JSON (treep-bench -scale) against the checked-in
// baseline and exits non-zero when allocs/run or live bytes per node
// regressed beyond the tolerance, or when a sharded row's parallel
// speedup fell below the configured floor.
//
// Allocations per run are the machine-independent cost metric of the
// deterministic simulation — wall-clock on shared CI runners swings 2×,
// but the allocation count of a seeded scenario is stable to a fraction
// of a percent, so a 15% jump is a real regression, not noise. Live
// bytes per node (the heap after a forced collection mid-run, over the
// alive nodes) is the memory side of the same claim and shares the
// tolerance; rows whose baseline has no live-bytes figure (the udp rows)
// are gated on allocations only. The
// speedup floor is the one wall-clock assertion: it only fires when the
// current run's recorded GOMAXPROCS actually covers the shard count, so
// a single-core runner cannot fail (or vacuously pass) a parallelism
// claim it cannot measure.
//
//	benchguard -baseline ci/bench-baseline.json -current results/scale-churn.json \
//	    -min-speedup 2.5 -speedup-n 10000 -speedup-shards 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// point mirrors the fields of treep-bench's ScalePoint that the guard
// cares about; extra fields in either file are ignored.
type point struct {
	// Workload distinguishes scale rows sharing a population ("" is the
	// canonical churn timeline, "dht" the storage workload).
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Shards is the engine configuration (0 = classic kernel).
	Shards int `json:"shards"`
	// MaxProcs is GOMAXPROCS recorded when the row was measured; the
	// speedup floor only applies when it covers Shards.
	MaxProcs  int     `json:"maxprocs"`
	AllocsRun uint64  `json:"allocs_run"`
	LiveBytes float64 `json:"live_bytes_per_node"`
	Speedup   float64 `json:"speedup"`
	// Truncated rows hit the -budget wall-clock cap: their counters cover
	// an unknown prefix of the timeline, so they are skipped in both
	// directions rather than compared.
	Truncated bool `json:"truncated"`
}

// key identifies one guarded scale row.
type key struct {
	workload string
	n        int
	shards   int
}

// canonWorkload maps the user-facing workload name to the JSON field
// value: the canonical churn timeline writes workload "" and prints as
// "churn", so flags accept either spelling.
func canonWorkload(w string) string {
	if w == "churn" {
		return ""
	}
	return w
}

func (k key) String() string {
	wl := k.workload
	if wl == "" {
		wl = "churn"
	}
	if k.shards > 0 {
		return fmt.Sprintf("%s/N=%d/shards=%d", wl, k.n, k.shards)
	}
	return fmt.Sprintf("%s/N=%d", wl, k.n)
}

func load(path string) (map[key]point, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pts []point
	if err := json.Unmarshal(data, &pts); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[key]point, len(pts))
	for _, p := range pts {
		if p.Truncated {
			// A truncated row measured an arbitrary wall-clock prefix;
			// comparing its counters would flag noise, and using it as a
			// baseline would unguard the real run.
			continue
		}
		out[key{p.Workload, p.N, p.Shards}] = p
	}
	return out, nil
}

// gate prints one metric's baseline→current line and reports whether it
// stayed within the tolerance. A current value of zero where the baseline
// has one is a regression: the metric went missing.
func gate(k key, metric string, base, cur, maxRegress float64, baseline string) bool {
	ratio := cur / base
	ok := cur > 0 && ratio <= 1+maxRegress
	status := "ok"
	if !ok {
		status = "REGRESSION"
	}
	fmt.Printf("benchguard: %s %s %.0f -> %.0f (%+.1f%%) %s\n", k, metric, base, cur, 100*(ratio-1), status)
	if ratio < 1-maxRegress {
		fmt.Printf("benchguard: %s %s improved beyond tolerance — update %s to lock in the gain\n", k, metric, baseline)
	}
	return ok
}

func main() {
	baseline := flag.String("baseline", "ci/bench-baseline.json", "checked-in baseline scale table")
	current := flag.String("current", "results/scale-churn.json", "freshly generated scale table")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional allocs/run and live bytes/node growth before failing")
	minSpeedup := flag.Float64("min-speedup", 0, "minimum speedup the guarded row must reach (0 disables)")
	speedupN := flag.Int("speedup-n", 10000, "population of the speedup-guarded churn row")
	speedupShards := flag.Int("speedup-shards", 4, "shard count of the speedup-guarded churn row")
	only := flag.String("only", "", "comma-separated workloads to guard (empty = all; \"churn\" names the canonical timeline)")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
	if *only != "" {
		// Different CI steps generate different slices of the table (the
		// simulated scale run vs the real-socket udp run); -only scopes both
		// files to the named workloads so each step guards its own rows
		// without tripping the missing-row check on the other step's.
		keep := make(map[string]bool)
		for _, w := range strings.Split(*only, ",") {
			keep[canonWorkload(strings.TrimSpace(w))] = true
		}
		for k := range base {
			if !keep[k.workload] {
				delete(base, k)
			}
		}
		for k := range cur {
			if !keep[k.workload] {
				delete(cur, k)
			}
		}
	}

	failed := false
	compared := 0
	for k, b := range base {
		c, ok := cur[k]
		if !ok {
			// A missing scale point silently unguards it — treat it as a
			// failure so the CI -scale invocation and the baseline cannot
			// drift apart unnoticed. (A row truncated by -budget in the
			// current run counts as missing: the budget must be set high
			// enough for the guarded rows to finish.)
			fmt.Fprintf(os.Stderr, "benchguard: %s in baseline but missing (or truncated) in current run\n", k)
			failed = true
			continue
		}
		compared++
		if !gate(k, "allocs/run", float64(b.AllocsRun), float64(c.AllocsRun), *maxRegress, *baseline) {
			failed = true
		}
		if b.LiveBytes > 0 && !gate(k, "live B/node", b.LiveBytes, c.LiveBytes, *maxRegress, *baseline) {
			failed = true
		}
	}
	// The reverse direction: a current row with no baseline entry is an
	// unguarded scale point — allocations there could regress arbitrarily
	// while CI stays green. Fail so adding a population or workload to the
	// CI -scale invocation forces a baseline regeneration in the same
	// change.
	for k := range cur {
		if _, ok := base[k]; !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s in current run but missing from baseline — regenerate %s\n", k, *baseline)
			failed = true
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no comparable populations between baseline and current")
		os.Exit(1)
	}

	if *minSpeedup > 0 {
		k := key{"", *speedupN, *speedupShards}
		switch c, ok := cur[k]; {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchguard: speedup floor set but %s missing from current run\n", k)
			failed = true
		case c.MaxProcs < c.Shards:
			// The floor is a parallelism claim; a runner without the cores
			// can neither validate nor refute it. Report, don't fail.
			fmt.Printf("benchguard: %s speedup %.2fx unchecked (GOMAXPROCS=%d < %d shards)\n",
				k, c.Speedup, c.MaxProcs, c.Shards)
		case c.Speedup < *minSpeedup:
			fmt.Fprintf(os.Stderr, "benchguard: %s speedup %.2fx below floor %.2fx (GOMAXPROCS=%d) REGRESSION\n",
				k, c.Speedup, *minSpeedup, c.MaxProcs)
			failed = true
		default:
			fmt.Printf("benchguard: %s speedup %.2fx ≥ floor %.2fx ok\n", k, c.Speedup, *minSpeedup)
		}
	}

	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: performance budget violated")
		os.Exit(1)
	}
	fmt.Println("benchguard: performance budget holds")
}
