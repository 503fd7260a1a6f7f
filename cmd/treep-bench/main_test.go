package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets each validation test re-execute this test binary as
// treep-bench itself: with the env marker set, the process runs main()
// and exits through treep-bench's real exit paths, so the tests observe
// the actual process exit codes users get.
func TestMain(m *testing.M) {
	if os.Getenv("TREEP_BENCH_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runBench re-executes the test binary as treep-bench with args and
// returns combined output plus the process exit code.
func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TREEP_BENCH_UNDER_TEST=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// TestConflictingFlagsExit2 pins the CLI contract: every flag conflict,
// mode mismatch, and malformed operand exits with status 2 and prints
// the usage synopsis, so scripts can distinguish "you called it wrong"
// from a failed run (exit 1).
func TestConflictingFlagsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"scale-and-compare", []string{"-scale", "500", "-compare", "chord"}},
		{"storage-without-scale", []string{"-storage"}},
		{"zipf-without-scale", []string{"-zipf"}},
		{"shards-without-scale", []string{"-shards", "2"}},
		{"budget-without-scale", []string{"-budget", "1m"}},
		{"bad-population", []string{"-scale", "abc"}},
		{"bad-shard-count", []string{"-scale", "100", "-shards", "-3"}},
		{"stray-operand", []string{"extra"}},
		{"udp-and-scale", []string{"-udp", "-scale", "500"}},
		{"udp-and-compare", []string{"-udp", "-compare", "chord"}},
		{"udp-for-without-udp", []string{"-udp-for", "2s"}},
		{"udp-workers-without-udp", []string{"-udp-workers", "4"}},
		{"udp-one-node", []string{"-udp", "-n", "1"}},
		{"udp-zero-workers", []string{"-udp", "-udp-workers", "0"}},
		{"udp-negative-window", []string{"-udp", "-udp-for", "-1s"}},
		{"udp-rate-without-udp", []string{"-udp-rate", "100"}},
		{"udp-negative-rate", []string{"-udp", "-udp-rate", "-5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runBench(t, tc.args...)
			if code != 2 {
				t.Errorf("%v exited %d, want 2\noutput:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, "Flags:") {
				t.Errorf("%v did not print usage\noutput:\n%s", tc.args, out)
			}
		})
	}
}

// TestScaleZipfRow runs a real (tiny) -scale -zipf invocation end to end
// and checks the exported table carries the zipf workload row with the
// keying fields benchguard compares on, and every row its live bytes.
func TestScaleZipfRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scale point")
	}
	dir := t.TempDir()
	out, code := runBench(t, "-scale", "80", "-zipf", "-lookups", "5", "-out", dir)
	if code != 0 {
		t.Fatalf("scale run exited %d\noutput:\n%s", code, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scale-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Workload  string  `json:"workload"`
		N         int     `json:"n"`
		Shards    int     `json:"shards"`
		FailPct   float64 `json:"fail_pct"`
		LiveBytes float64 `json:"live_bytes_per_node"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	var zipf, churn bool
	for _, r := range rows {
		if r.LiveBytes <= 0 {
			t.Errorf("%q row has no live_bytes_per_node", r.Workload)
		}
		switch r.Workload {
		case "zipf":
			zipf = true
			if r.N != 80 || r.Shards != 0 {
				t.Errorf("zipf row keyed (n=%d, shards=%d), want (80, 0)", r.N, r.Shards)
			}
			if r.FailPct != 0 {
				t.Errorf("zipf row read-miss %.2f%%, want 0", r.FailPct)
			}
		case "":
			churn = true
		}
	}
	if !zipf || !churn {
		t.Errorf("exported rows missing workloads (zipf=%v churn=%v):\n%s", zipf, churn, data)
	}
}

// TestUDPBenchRow runs a real (tiny) -udp invocation end to end: a
// 3-node loopback cluster, one worker, a short window — and checks the
// exported table carries the udp workload row keyed the way benchguard
// compares it, with traffic actually measured.
func TestUDPBenchRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real UDP cluster")
	}
	dir := t.TempDir()
	out, code := runBench(t, "-udp", "-n", "3", "-udp-for", "500ms",
		"-udp-workers", "1", "-udp-records", "2", "-out", dir)
	if code != 0 {
		t.Fatalf("udp run exited %d\noutput:\n%s", code, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "udp-bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Workload string  `json:"workload"`
		N        int     `json:"n"`
		Shards   int     `json:"shards"`
		Events   uint64  `json:"events"`
		FailPct  float64 `json:"fail_pct"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("udp-bench.json has %d rows, want 1:\n%s", len(rows), data)
	}
	r := rows[0]
	if r.Workload != "udp" || r.N != 3 || r.Shards != 0 {
		t.Errorf("udp row keyed (%q, n=%d, shards=%d), want (\"udp\", 3, 0)", r.Workload, r.N, r.Shards)
	}
	if r.Events == 0 {
		t.Errorf("udp row measured zero datagrams:\n%s", data)
	}
	if r.FailPct > 50 {
		t.Errorf("udp row read-miss %.1f%%: cluster unhealthy\noutput:\n%s", r.FailPct, out)
	}
}
