package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/obs"
	"uavres/internal/sim"
)

// hashedCases builds a small campaign with fingerprints, reusing the
// runner-test scenario.
func hashedCases() []Case {
	mk := func(p faultinject.Primitive, seed int64) *faultinject.Injection {
		return &faultinject.Injection{
			Primitive: p, Target: faultinject.TargetGyro,
			Start: 20 * time.Second, Duration: 2 * time.Second, Seed: seed,
		}
	}
	cases := []Case{
		{ID: "gold", MissionID: 1, Seed: 31},
		{ID: "f1", MissionID: 1, Seed: 31, Injection: mk(faultinject.Zeros, 1)},
		{ID: "f2", MissionID: 1, Seed: 31, Injection: mk(faultinject.Noise, 2)},
		{ID: "f3", MissionID: 1, Seed: 31, Injection: mk(faultinject.Freeze, 3)},
	}
	for i := range cases {
		cases[i].Hash = "h-" + cases[i].ID
	}
	return cases
}

// TestResumeRunsOnlyMissingCases: a partial results file leads to only
// the missing cases executing, asserted through the runner's own
// campaign_cases_total metric.
func TestResumeRunsOnlyMissingCases(t *testing.T) {
	cases := hashedCases()

	// First pass: run everything, keep the streamed results.
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 2
	full := r.RunAll(context.Background(), cases)
	for _, cr := range full {
		if cr.Err != "" {
			t.Fatalf("first pass case %s errored: %s", cr.Case.ID, cr.Err)
		}
	}

	// Simulate an interrupted campaign: the file holds only two results.
	partial := full[:2]
	plan := PlanResume(cases, partial)
	if len(plan.Reused) != 2 || len(plan.Run) != 2 {
		t.Fatalf("resume plan: %d reused, %d to run, want 2/2", len(plan.Reused), len(plan.Run))
	}
	if plan.Run[0].ID != "f2" || plan.Run[1].ID != "f3" {
		t.Fatalf("resume runs %q, %q; want f2, f3", plan.Run[0].ID, plan.Run[1].ID)
	}

	// Second pass executes exactly the missing cases: runner metrics are
	// the witness.
	r2 := NewRunner()
	r2.Missions = shortScenario()
	r2.Obs = obs.NewRegistry()
	rerun := r2.RunAll(context.Background(), plan.Run)
	if got := r2.Obs.Counter("campaign_cases_total").Value(); got != 2 {
		t.Fatalf("resume executed %d cases, want 2", got)
	}
	// The re-run is bit-identical to the first pass (same seeds, same
	// config): resume cannot change verdicts.
	for i, cr := range rerun {
		orig := full[2+i]
		if cr.Result.Outcome != orig.Result.Outcome || cr.Result.FlightDurationSec != orig.Result.FlightDurationSec {
			t.Errorf("%s: resumed result differs: %+v vs %+v", cr.Case.ID, cr.Result, orig.Result)
		}
	}

	// A completed file resumes to zero work.
	done := PlanResume(cases, full)
	if len(done.Run) != 0 || len(done.Reused) != len(cases) {
		t.Fatalf("complete file: %d to run, %d reused", len(done.Run), len(done.Reused))
	}
}

// TestResumeStaleHashReruns: a prior result whose fingerprint no longer
// matches the compiled case is re-executed, not reused.
func TestResumeStaleHashReruns(t *testing.T) {
	cases := hashedCases()
	prior := make([]CaseResult, len(cases))
	for i, c := range cases {
		prior[i] = CaseResult{Case: c, Result: sim.Result{Outcome: sim.OutcomeCompleted}}
	}
	// The config changed under f1: its compiled hash moved.
	cases[1].Hash = "h-f1-v2"
	plan := PlanResume(cases, prior)
	if plan.Stale != 1 || len(plan.Run) != 1 || plan.Run[0].ID != "f1" {
		t.Fatalf("stale plan: stale=%d run=%v", plan.Stale, ids(plan.Run))
	}
	if len(plan.Reused) != 3 {
		t.Fatalf("reused %d, want 3", len(plan.Reused))
	}
}

// TestResumeNeverTrustsHashlessCases: without fingerprints (legacy
// files, hand-built cases) everything re-runs.
func TestResumeNeverTrustsHashlessCases(t *testing.T) {
	cases := hashedCases()
	prior := make([]CaseResult, len(cases))
	for i, c := range cases {
		prior[i] = CaseResult{Case: c, Result: sim.Result{Outcome: sim.OutcomeCompleted}}
	}
	for i := range cases {
		cases[i].Hash = ""
		prior[i].Case.Hash = ""
	}
	plan := PlanResume(cases, prior)
	if len(plan.Run) != len(cases) {
		t.Fatalf("hashless resume reused %d cases", len(plan.Reused))
	}
}

// TestResumeErroredCasesRerun: execution errors (including cancellation)
// are infrastructure failures, not outcomes — they re-run.
func TestResumeErroredCasesRerun(t *testing.T) {
	cases := hashedCases()
	prior := []CaseResult{
		{Case: cases[0], Result: sim.Result{Outcome: sim.OutcomeCompleted}},
		{Case: cases[1], Err: "cancelled"},
	}
	plan := PlanResume(cases, prior)
	if plan.Errored != 1 {
		t.Fatalf("errored = %d, want 1", plan.Errored)
	}
	if got := ids(plan.Run); len(got) != 3 || got[0] != "f1" {
		t.Fatalf("run = %v, want f1 first", got)
	}
}

func ids(cs []Case) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// writeResults streams results exactly as cmd/campaign does.
func writeResults(t *testing.T, results []CaseResult, closed bool) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	for _, r := range results {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func resumeResults() []CaseResult {
	return []CaseResult{
		mkResult(1, inj(faultinject.Freeze, faultinject.TargetIMU, 5*time.Second), sim.OutcomeFailsafe, 3, 2, 99.5, 0.4),
		mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
	}
}

func TestLoadPartialResultsComplete(t *testing.T) {
	text := writeResults(t, resumeResults(), true)
	got, truncated, err := LoadPartialResults(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("complete file reported truncated")
	}
	if len(got) != 2 || got[0].Result.Outcome != sim.OutcomeFailsafe {
		t.Fatalf("loaded %d results: %+v", len(got), got)
	}
}

// TestLoadPartialResultsTruncated: a file cut off mid-element (the
// process died writing) yields the clean prefix and truncated=true.
func TestLoadPartialResultsTruncated(t *testing.T) {
	text := writeResults(t, resumeResults(), false) // no closing bracket
	for _, cut := range []string{
		text,                 // unterminated array, whole elements
		text[:len(text)*3/4], // torn element
		text[:len(text)/2],   // torn earlier
		"",                   // nothing written yet
	} {
		got, truncated, err := LoadPartialResults(strings.NewReader(cut))
		if err != nil {
			t.Fatalf("cut %d bytes: %v", len(cut), err)
		}
		if !truncated {
			t.Errorf("cut %d bytes: not reported truncated", len(cut))
		}
		for _, cr := range got {
			if cr.Case.ID == "" {
				t.Errorf("cut %d bytes: torn element surfaced: %+v", len(cut), cr)
			}
		}
	}
}

// TestLoadPartialResultsHeaderOnly: a campaign interrupted before (or
// right after) its first case leaves just the run-metadata element.
// That is the zero-progress resume — no prior results, no error —
// whether the array was closed cleanly or cut off.
func TestLoadPartialResultsHeaderOnly(t *testing.T) {
	for _, tc := range []struct {
		name      string
		closed    bool
		wantTrunc bool
	}{
		{"closed", true, false},
		{"truncated", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewResultsWriter(&buf)
			if err := w.WriteHeader(ResultsHeader{SpecHash: "abc123", RNGPolicy: "polar", Workers: 4}); err != nil {
				t.Fatal(err)
			}
			if tc.closed {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			got, truncated, err := LoadPartialResults(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Errorf("header-only file yielded %d results: %+v", len(got), got)
			}
			if truncated != tc.wantTrunc {
				t.Errorf("truncated = %v, want %v", truncated, tc.wantTrunc)
			}
		})
	}
}

// TestLoadPartialResultsCorruptHeader: a garbled header line is a real
// error naming its line — resume must refuse the file, not silently
// treat it as zero progress and overwrite it.
func TestLoadPartialResultsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	if err := w.WriteHeader(ResultsHeader{RNGPolicy: "polar"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range resumeResults() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(buf.String(), `"header"`, `"header" ###`, 1)
	_, _, err := LoadPartialResults(strings.NewReader(text))
	if err == nil {
		t.Fatal("corrupt header accepted")
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error does not name a line: %v", err)
	}
}

// TestLoadPartialResultsCorrupt: corruption inside the file is a real
// error and it names the line, not a panic and not a silent partial.
func TestLoadPartialResultsCorrupt(t *testing.T) {
	text := writeResults(t, resumeResults(), true)
	lines := strings.Split(text, "\n")
	// Garble a line inside the first element.
	corruptLine := 3
	lines[corruptLine-1] = `   "mission_id": ###,`
	corrupt := strings.Join(lines, "\n")

	_, _, err := LoadPartialResults(strings.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupt file loaded without error")
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error does not name a line: %v", err)
	}
	// Not-an-array documents are rejected too.
	if _, _, err := LoadPartialResults(strings.NewReader(`{"a":1}`)); err == nil {
		t.Error("non-array document accepted")
	}
}
