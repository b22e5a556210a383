// Command bench measures the simulator's hot-path micro-benchmarks
// (internal/microbench, ns/op and allocs/op via testing.Benchmark) and
// writes them to a machine-readable BENCH_<date>.json. End-to-end
// campaign timing lives in perfbench/.
//
// Usage:
//
//	bench [-out BENCH_2026-08-06.json]
//	bench -compare OLD.json NEW.json
//
// The -compare mode diffs two reports micro-by-micro and exits nonzero
// when NEW regresses: >10% ns/op on any shared micro, or any increase in
// allocs/op (CI perf gate; see scripts/bench.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"uavres/internal/microbench"
)

// MicroResult is one micro-benchmark's outcome.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// NsSpread is the relative rep-to-rep spread, (max-min)/min, across
	// the microReps repetitions behind NsPerOp. A spread above the
	// regression threshold means the host window was too noisy (steal
	// time, frequency scaling) for the ns/op gate to be meaningful on
	// this micro: compareReports reports but does not gate such rows.
	// Absent in reports predating the field (treated as 0 = trusted).
	NsSpread float64 `json:"ns_spread,omitempty"`
}

// Report is the emitted JSON document. Reports written before the
// campaign slice moved to perfbench/ also carry campaign, spec_hash and
// rng_policy fields; they are ignored on load.
type Report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// MicroReps is how many repetitions each micro-benchmark ran; the
	// reported ns/op is the minimum across them (host steal time only
	// inflates a run, so the minimum is the least-biased estimator).
	MicroReps int           `json:"micro_reps,omitempty"`
	Micro     []MicroResult `json:"micro"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out     = flag.String("out", "", "output path (default BENCH_<date>.json)")
		compare = flag.Bool("compare", false, "compare two reports: bench -compare OLD.json NEW.json (exit 1 on regression)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two report paths: OLD.json NEW.json")
			return 2
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}

	rep := Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		MicroReps:  microReps,
	}

	fmt.Println("bench: micro-benchmarks")
	for _, m := range microbench.Table {
		r := measure(m)
		rep.Micro = append(rep.Micro, r)
		fmt.Printf("  %-28s %12.0f ns/op %6d B/op %4d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("report written to %s\n", path)
	return 0
}

// microReps is how many repetitions of each micro-benchmark run; the
// minimum ns/op across them is reported. On a shared single-vCPU host,
// steal time only ever inflates a run, so the minimum is the least-biased
// estimator of true cost (see DESIGN.md §11). Allocation counts are
// deterministic; any repetition serves.
const microReps = 5

// measure runs one micro microReps times and keeps the fastest run.
func measure(m microbench.Micro) MicroResult {
	best := testing.Benchmark(m.Run)
	bestNs := float64(best.T.Nanoseconds()) / float64(best.N)
	worstNs := bestNs
	for rep := 1; rep < microReps; rep++ {
		r := testing.Benchmark(m.Run)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if ns < bestNs {
			best, bestNs = r, ns
		}
		if ns > worstNs {
			worstNs = ns
		}
	}
	spread := 0.0
	if bestNs > 0 {
		spread = (worstNs - bestNs) / bestNs
	}
	return MicroResult{
		Name:        m.Name,
		NsPerOp:     bestNs,
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
		NsSpread:    spread,
	}
}

// compareReports diffs two bench reports and returns 1 when NEW regresses
// against OLD: any shared micro more than 10% slower in ns/op, or any
// increase in allocs/op. Micros present in only one report are noted but
// never fail the gate. A ns/op delta is only gated when BOTH reports saw a
// rep-to-rep spread at or below the same 10% threshold on that micro —
// when either side's own repetitions disagreed by more than the gate
// width, the host window (vCPU steal, frequency scaling) is louder than
// any real change and the row is reported as noisy instead of failing.
// Allocation counts are deterministic, so allocs/op regressions always
// gate regardless of timing noise.
func compareReports(oldPath, newPath string) int {
	load := func(path string) (Report, error) {
		var rep Report
		data, err := os.ReadFile(path)
		if err != nil {
			return rep, err
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return rep, fmt.Errorf("%s: %w", path, err)
		}
		return rep, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Reports from different host windows (CPU count or toolchain) time
	// different machines, not different code: the micro gate still runs
	// (minimum-of-reps is fairly robust), but every ns/op delta below is
	// suspect. Warn loudly rather than silently diffing.
	if oldRep.NumCPU != newRep.NumCPU || oldRep.GoVersion != newRep.GoVersion {
		fmt.Fprintf(os.Stderr,
			"bench: WARNING: reports come from different host windows — ns/op deltas measure the machine, not only the code\n"+
				"  old %s: num_cpu=%d go_version=%s\n"+
				"  new %s: num_cpu=%d go_version=%s\n",
			oldPath, oldRep.NumCPU, oldRep.GoVersion,
			newPath, newRep.NumCPU, newRep.GoVersion)
	}

	oldBy := map[string]MicroResult{}
	for _, m := range oldRep.Micro {
		oldBy[m.Name] = m
	}
	fmt.Printf("bench: comparing %s (old) -> %s (new)\n", oldPath, newPath)
	fmt.Printf("  %-28s %12s %12s %8s %s\n", "micro", "old ns/op", "new ns/op", "delta", "allocs")
	regressions := 0
	for _, m := range newRep.Micro {
		o, ok := oldBy[m.Name]
		if !ok {
			fmt.Printf("  %-28s %12s %12.0f %8s %d (new)\n", m.Name, "-", m.NsPerOp, "-", m.AllocsPerOp)
			continue
		}
		delete(oldBy, m.Name)
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (m.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		verdict := ""
		if delta > 10 {
			if o.NsSpread > 0.10 || m.NsSpread > 0.10 {
				verdict = fmt.Sprintf("  noisy (spread %.0f%% -> %.0f%%), not gated",
					o.NsSpread*100, m.NsSpread*100)
			} else {
				verdict = "  REGRESSION: >10% slower"
				regressions++
			}
		}
		if m.AllocsPerOp > o.AllocsPerOp {
			verdict += fmt.Sprintf("  REGRESSION: allocs/op %d -> %d", o.AllocsPerOp, m.AllocsPerOp)
			regressions++
		}
		fmt.Printf("  %-28s %12.0f %12.0f %+7.1f%% %d->%d%s\n",
			m.Name, o.NsPerOp, m.NsPerOp, delta, o.AllocsPerOp, m.AllocsPerOp, verdict)
	}
	for name := range oldBy {
		fmt.Printf("  %-28s dropped from new report\n", name)
	}

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) against %s\n", regressions, oldPath)
		return 1
	}
	fmt.Println("bench: no regressions")
	return 0
}
