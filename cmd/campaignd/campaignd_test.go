package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/spec"
	"uavres/internal/store"
)

// newTestServer builds a quiet daemon over a fresh store on a stopped
// clock; campaigns run real simulations on the in-process runner.
func newTestServer(t *testing.T) (*server, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return newServer(st, t.TempDir(), true, obs.Stopped()), st
}

// demoSpec is shaped like examples/specs/mini-grid.json: one mission,
// four gyro injections forked off one prefix plus the gold run.
const demoSpec = `{
 "version": 1,
 "name": "campaignd-test",
 "seed": 1,
 "missions": [1],
 "matrix": {"targets": ["gyro"], "primitives": ["freeze", "zeros"], "durations_sec": [2, 5]}
}`

func postRun(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRunColdThenWarm is the acceptance shape: the first submission
// simulates everything, the second replays everything from the store,
// and both results files hold, case by case, exactly what a direct
// core.Runner run of the same compiled cases produces — full simulated
// payloads included — under the spec hash cmd/campaign stamps.
func TestRunColdThenWarm(t *testing.T) {
	s, st := newTestServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	post := func() runSummary {
		t.Helper()
		resp := postRun(t, ts.URL, demoSpec)
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /run: %s: %s", resp.Status, body)
		}
		var sum runSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	cold := post()
	// 1 mission x (1 target x 2 primitives x 2 durations) + 1 gold = 5.
	if cold.Cases != 5 || cold.CacheMisses != 5 || cold.CacheHits != 0 || cold.Failures != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	if st.Stats().Objects != 5 {
		t.Fatalf("store holds %d objects after cold run, want 5", st.Stats().Objects)
	}
	warm := post()
	if warm.CacheHits != 5 || warm.CacheMisses != 0 || warm.CacheHitRatio != 1 {
		t.Fatalf("warm run: %+v", warm)
	}

	// The direct run: the same compiled, fingerprinted cases on a plain
	// runner, which retains full payloads when no hook is wired.
	cs := mustParse(t, demoSpec)
	cases, err := cs.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	cs.Overrides.Apply(&runner.Config)
	spec.AttachFingerprints(cases, runner.Config)
	direct := runner.RunAll(context.Background(), cases)

	// cmd/campaign hashes the spec after defaulting its scope to "all".
	explicit := strings.Replace(demoSpec, `"durations_sec": [2, 5]`, `"durations_sec": [2, 5], "scope": "all"`, 1)
	wantHash := mustParse(t, explicit).Hash()
	if directHdr := runner.Header(cs.Hash()); cold.SpecHash != wantHash || directHdr.SpecHash != wantHash {
		t.Errorf("spec hash %s (summary), %s (direct header); want %s", cold.SpecHash, directHdr.SpecHash, wantHash)
	}

	for name, path := range map[string]string{"cold": cold.ResultsPath, "warm": warm.ResultsPath} {
		hdr, got, err := core.LoadResultsFileWithHeader(path)
		if err != nil {
			t.Fatal(err)
		}
		if hdr == nil || hdr.SpecHash != wantHash {
			t.Errorf("%s results header %+v, want spec_hash %s", name, hdr, wantHash)
		}
		if len(got) != len(direct) {
			t.Fatalf("%s results file holds %d cases, want %d", name, len(got), len(direct))
		}
		byID := map[string]core.CaseResult{}
		for _, cr := range got {
			byID[cr.Case.ID] = cr
		}
		for _, want := range direct {
			if want.Result.Diagnostics == nil {
				t.Fatalf("direct case %s carries no diagnostics", want.Case.ID)
			}
			if !reflect.DeepEqual(byID[want.Case.ID], want) {
				t.Errorf("%s run: case %s differs from the direct run", name, want.Case.ID)
			}
		}
	}

	// The status endpoint reflects the warm run's perfect hit ratio.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status core.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.CacheHitRatio != 1 || !status.Done || status.CasesTotal != 5 || status.SpecHash != wantHash {
		t.Errorf("status after warm run: %+v", status)
	}

	// And the store endpoint reports the objects backing it.
	resp2, err := http.Get(ts.URL + "/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats store.Stats
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 5 {
		t.Errorf("store stats: %+v", stats)
	}
}

// TestOverlappingGridRunsOnlyComplement: a wider grid over a warmed
// store simulates exactly the new cells.
func TestOverlappingGridRunsOnlyComplement(t *testing.T) {
	s, _ := newTestServer(t)
	first, err := s.runCampaign(context.Background(), mustParse(t, demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != 5 {
		t.Fatalf("first run: %+v", first)
	}
	// Same grid plus one extra duration: 2 primitives = 2 new cells;
	// everything else replays.
	wider := strings.Replace(demoSpec, `"durations_sec": [2, 5]`, `"durations_sec": [2, 5, 10]`, 1)
	second, err := s.runCampaign(context.Background(), mustParse(t, wider))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cases != 7 || second.CacheHits != 5 || second.CacheMisses != 2 || second.Failures != 0 {
		t.Fatalf("overlapping run did not simulate only the complement: %+v", second)
	}
}

// TestRunBusyReturnsConflict: campaigns run one at a time, so a POST
// while the slot is held is refused with 409 rather than queued.
func TestRunBusyReturnsConflict(t *testing.T) {
	s, st := newTestServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	s.runMu.Lock()
	resp := postRun(t, ts.URL, demoSpec)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.runMu.Unlock()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST /run while busy: %d, want 409", resp.StatusCode)
	}
	if st.Stats().Objects != 0 {
		t.Errorf("refused run stored results: %+v", st.Stats())
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for name, body := range map[string]string{
		"not json":        "{",
		"unknown field":   `{"version": 1, "bogus": true}`,
		"wrong version":   `{"version": 99}`,
		"unknown mission": `{"version": 1, "missions": [42]}`,
	} {
		resp := postRun(t, ts.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: accepted", name)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: %d, want 405", resp.StatusCode)
	}
}

func mustParse(t *testing.T, s string) spec.CampaignSpec {
	t.Helper()
	cs, err := spec.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}
