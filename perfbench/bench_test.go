package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/sim"
	"uavres/internal/store"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, lm := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
		if !nameRE.MatchString(lm.name) {
			t.Errorf("metric name %q does not match %s", lm.name, nameRE)
		}
		if !unitRE.MatchString(lm.unit) {
			t.Errorf("metric %s: unit %q does not match %s", lm.name, lm.unit, unitRE)
		}
		if seen[lm.name] {
			t.Errorf("metric name %q used twice", lm.name)
		}
		seen[lm.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, lm := range want {
			if got[i].Name != lm.name || got[i].Unit != lm.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, lm.name, lm.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.compile(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.compile(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if caseIDs(a) != caseIDs(b) {
			t.Errorf("%s: seed 7 compiled to different case IDs or fingerprints", w.name)
		}
		c, err := w.compile(8)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if caseIDs(a) == caseIDs(c) {
			t.Errorf("%s: seeds 7 and 8 compiled to the same fingerprints", w.name)
		}
		for _, cs := range a.cases {
			if cs.Hash == "" {
				t.Fatalf("%s: case %s has no fingerprint", w.name, cs.ID)
			}
		}
	}
}

func sampleResults() []core.CaseResult {
	return []core.CaseResult{
		{Case: core.Case{ID: "m01-gold"}, Result: sim.Result{Outcome: sim.OutcomeCompleted, FlightDurationSec: 312.5, DistanceKm: 1.25}},
		{Case: core.Case{ID: "m01-gyro-max-30s"}, Result: sim.Result{Outcome: sim.OutcomeCrash, FlightDurationSec: 93.25,
			DistanceKm: 0.5, OuterViolations: 2, CrashReason: "hard impact"}},
	}
}

func TestDigestDetectsOneBit(t *testing.T) {
	rs := sampleResults()
	base := digest(rs)
	rs[1].Result.FlightDurationSec = math.Float64frombits(math.Float64bits(rs[1].Result.FlightDurationSec) ^ 1)
	if digest(rs) == base {
		t.Fatal("flipping one bit of FlightDurationSec left the digest unchanged")
	}
	swapped := sampleResults()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if digest(swapped) != base {
		t.Fatal("the digest depends on result order")
	}
}

// TestTimedCacheReplayBitIdentical replays a small filled store through
// the timing wrapper and directly, and requires byte-identical results.
func TestTimedCacheReplayBitIdentical(t *testing.T) {
	w, _ := findWorkload("store-replay")
	p, err := w.compile(pinnedSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Mission 1's gold run and its first two faulty cases: a shared
	// prefix, two forks and one straight flight.
	var cases []core.Case
	for _, c := range p.cases {
		if c.MissionID == 1 && len(cases) < 3 {
			cases = append(cases, c)
		}
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill := newRunner(p, 1)
	fill.Cache = st
	fresh := fill.RunAll(context.Background(), cases)

	replay := func(cache core.ResultCache) []byte {
		r := newRunner(p, 1)
		r.Cache = cache
		var buf bytes.Buffer
		rw := core.NewResultsWriter(&buf)
		r.OnResult = func(res core.CaseResult) {
			if err := rw.Write(res); err != nil {
				t.Fatal(err)
			}
		}
		r.RunAll(context.Background(), cases)
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	tc := &timedCache{inner: st, hits: map[string]bool{}}
	wrapped, direct := replay(tc), replay(st)
	if !bytes.Equal(wrapped, direct) {
		t.Fatal("results replayed through the timing wrapper differ from a direct replay")
	}
	if len(cases) != 3 || len(tc.hits) != len(cases) || len(tc.lookups) != len(cases) {
		t.Fatalf("wrapper saw %d hits in %d lookups, want %d of each", len(tc.hits), len(tc.lookups), len(cases))
	}
	var got []core.CaseResult
	if err := json.Unmarshal(wrapped, &got); err != nil {
		t.Fatal(err)
	}
	if digest(got) != digest(fresh) {
		t.Fatal("replayed results do not reproduce the simulated digest")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]float64{{0, 2}, {1, 3}, {5, 6}, {-1, 0.5}}
	if got := covered(iv, 0, 5.5); got != 3.5 {
		t.Fatalf("covered = %v, want 3.5", got)
	}
}

// caseIDs lists a plan's case IDs and fingerprints, one case a line.
func caseIDs(p plan) string {
	var b strings.Builder
	for _, c := range p.cases {
		fmt.Fprintf(&b, "%s %s\n", c.ID, c.Hash)
	}
	return b.String()
}
