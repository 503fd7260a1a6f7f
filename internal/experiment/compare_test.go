package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"treep/internal/metrics"
	"treep/internal/scenario"
)

// compareOpts is a small, fast head-to-head configuration.
func compareOpts() CompareOptions {
	return CompareOptions{
		N:     80,
		Seeds: []int64{1, 2},
		Phases: []scenario.Phase{
			scenario.Churn{For: 5 * time.Second, JoinRate: 2, LeaveRate: 2},
			scenario.Settle{For: 6 * time.Second},
		},
		Scenario:        "churn",
		WarmUp:          4 * time.Second,
		LookupsPerPhase: 40,
	}
}

// TestRunCompareProducesCompleteRecords: every backend × seed × phase has
// exactly one record with lookups measured and maintenance accounted.
func TestRunCompareProducesCompleteRecords(t *testing.T) {
	res, err := RunCompare(compareOpts())
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	recs := res.Recorder.Records
	wantRows := len(CompareBackends) * 2 /*seeds*/ * 2 /*phases*/
	if len(recs) != wantRows {
		t.Fatalf("got %d records, want %d", len(recs), wantRows)
	}

	type cell struct {
		backend string
		seed    int64
		idx     int
	}
	seen := map[cell]bool{}
	for _, r := range recs {
		seen[cell{r.Backend, r.Seed, r.PhaseIdx}] = true
		if r.Lookups == 0 {
			t.Errorf("%s seed=%d phase=%d: no lookups measured", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.Backend != "flood" && r.MaintMsgs == 0 {
			t.Errorf("%s seed=%d phase=%d: no maintenance traffic recorded", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.StateSize == 0 {
			t.Errorf("%s seed=%d phase=%d: StateSize = 0", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.Scenario != "churn" {
			t.Errorf("record scenario = %q, want churn", r.Scenario)
		}
	}
	for _, b := range CompareBackends {
		for _, s := range []int64{1, 2} {
			for idx := 0; idx < 2; idx++ {
				if !seen[cell{b, s, idx}] {
					t.Errorf("missing record for %s seed=%d phase=%d", b, s, idx)
				}
			}
		}
	}

	// Seed-replicated workload: for a given seed, every backend must have
	// absorbed the same join/leave schedule during the churn phase.
	joins := map[int64]map[string]int{1: {}, 2: {}}
	for _, r := range recs {
		if r.PhaseIdx == 0 {
			joins[r.Seed][r.Backend] = r.Joins
		}
	}
	for seed, byBackend := range joins {
		want := byBackend[CompareBackends[0]]
		for b, got := range byBackend {
			if got != want {
				t.Errorf("seed %d: backend %s saw %d joins, %s saw %d — timelines diverged",
					seed, b, got, CompareBackends[0], want)
			}
		}
	}

	if CompareSummary(res) == "" {
		t.Error("CompareSummary returned an empty table")
	}
}

// TestRunCompareDeterministic: the same options give byte-identical CSV.
func TestRunCompareDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic replay is a double run; skipped in -short")
	}
	run := func() []byte {
		res, err := RunCompare(compareOpts())
		if err != nil {
			t.Fatalf("RunCompare: %v", err)
		}
		var buf bytes.Buffer
		if err := res.Recorder.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("two runs with identical options produced different CSV records")
	}
}

// TestRunCompareExport: the CSV parses with the right shape and the JSON
// round-trips.
func TestRunCompareExport(t *testing.T) {
	opts := compareOpts()
	opts.Seeds = []int64{1}
	opts.Backends = []string{"chord", "flood"}
	res, err := RunCompare(opts)
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	dir := t.TempDir()
	csvPath, jsonPath, err := res.Recorder.Export(dir, "compare-churn")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}

	var buf bytes.Buffer
	if err := res.Recorder.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing exported CSV: %v", err)
	}
	if len(rows) != 1+len(res.Recorder.Records) {
		t.Errorf("CSV has %d rows, want header + %d", len(rows), len(res.Recorder.Records))
	}

	var jbuf bytes.Buffer
	if err := res.Recorder.WriteJSON(&jbuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back []metrics.PhaseRecord
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatalf("parsing exported JSON: %v", err)
	}
	if len(back) != len(res.Recorder.Records) {
		t.Errorf("JSON round-trip has %d records, want %d", len(back), len(res.Recorder.Records))
	}
	if csvPath == "" || jsonPath == "" {
		t.Error("Export returned empty paths")
	}
}

// TestRunCompareRejectsBadConfig: unknown backends and unsupported phases
// error out before any trial runs.
func TestRunCompareRejectsBadConfig(t *testing.T) {
	bad := compareOpts()
	bad.Backends = []string{"treep", "pastry"}
	if _, err := RunCompare(bad); err == nil {
		t.Error("RunCompare accepted unknown backend \"pastry\"")
	}

	bad = compareOpts()
	bad.Phases = []scenario.Phase{scenario.RevivalWave{Over: time.Second}}
	if _, err := RunCompare(bad); err == nil {
		t.Error("RunCompare accepted the unsupported RevivalWave phase")
	}

	if _, err := ComparePhases("nosuch", 100); err == nil {
		t.Error("ComparePhases accepted an unknown scenario name")
	}
	for _, name := range CompareScenarios {
		if _, err := ComparePhases(name, 100); err != nil {
			t.Errorf("ComparePhases(%q): %v", name, err)
		}
	}
}

// compareDigests are the SHA-256 digests of the CSV export of RunCompare
// for each scenario at N=80, seed 1, 40 lookups per phase, all backends.
// They pin the comparative harness end to end: phase interpretation,
// event and lookup draws, and record filling. A change that moves any of
// them changes every published comparison, and must say so.
var compareDigests = map[string]string{
	"churn":      "8fef7b423be18754d8cf177a4cd054fbd75ad6069388fb2c512de19159a0431c",
	"flashcrowd": "65508e4986ff97ce8b98a1cd940ef7270b1f10b6c808b5058a800c0557371ba1",
	"zonefail":   "884154a8e19d1cf13ee0419e4c408b1d870be9e3a5133b24aae7c6aa5af3117a",
	"partition":  "acdde5b720f8051a0660977a6d4d285c95b2eeb0d3c039caab09fe6703637fd6",
}

// TestRunCompareDigestsPinned replays every comparative scenario and
// checks its records byte for byte against the pinned digests.
func TestRunCompareDigestsPinned(t *testing.T) {
	for _, scen := range CompareScenarios {
		res, err := RunCompare(CompareOptions{
			N: 80, Seeds: []int64{1}, Scenario: scen, LookupsPerPhase: 40,
		})
		if err != nil {
			t.Fatalf("%s: RunCompare: %v", scen, err)
		}
		var buf bytes.Buffer
		if err := res.Recorder.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != compareDigests[scen] {
			t.Errorf("%s: CSV digest %s, want %s\n%s", scen, got, compareDigests[scen], buf.String())
		}
	}
}
