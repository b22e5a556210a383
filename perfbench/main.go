// Command perfbench is the campaign benchmark: it runs one named workload
// of the fault-injection campaign engine for a fixed time, checks every
// pass against pinned result digests, and prints its metrics.
//
//	perfbench --workload paper-fork --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it prints the per-layer metrics from a separate
// traced run. The last line of standard output is always one JSON object
// with the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uavres/internal/mathx"
	"uavres/internal/obs"
	"uavres/internal/store"
)

// maxWorkers caps the runner's worker pool; the benchmark host class has
// two vCPUs.
const maxWorkers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 31

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string
	fill     string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", pinnedSeed, "workload seed (the campaign spec seed)")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for result stores and the run record")
	fs.StringVar(&o.fill, "fill", "", "internal: fill the store at this directory with one pass and print its digest")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	w, _ := findWorkload(o.workload)
	if o.fill != "" {
		d, err := fillStore(w, o.seed, o.fill)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: fill:", err)
			return 1
		}
		fmt.Fprintln(stdout, d)
		return 0
	}
	sum, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-readable last line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workers() int {
	if n := runtime.NumCPU(); n < maxWorkers {
		return n
	}
	return maxWorkers
}

// fillStore simulates one pass of the workload into a fresh store at dir
// and returns the pass's result digest. store-replay runs it in a child
// process, so the replay run's CPU time and peak memory exclude it.
func fillStore(w workload, seed int64, dir string) (string, error) {
	su, err := setup(w, seed, workers(), dir, nil)
	if err != nil {
		return "", err
	}
	defer su.store.Close()
	pr, err := runPass(passEnv{runner: su.runner, cases: su.plan.cases, store: su.store})
	if err != nil {
		return "", err
	}
	if pr.failed > 0 {
		return "", fmt.Errorf("%d of %d cases failed while filling the store", pr.failed, pr.cases)
	}
	return pr.digest, su.store.Close()
}

// runFill fills the replay store in a child process and waits for it.
func runFill(w workload, seed int64, dir string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--fill", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("filling the replay store: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// run state shared by the untraced and traced modes.
type runState struct {
	w       workload
	o       options
	wd      *workDir
	workers int
	// storeDir is the filled store of a replay workload.
	storeDir string
	// expect is the digest every pass must reproduce ("" until the first
	// pass when nothing is pinned).
	expect    string
	attempted int
	failed    int
	out       io.Writer
}

// check folds one pass into the correctness tally: a pass whose digest
// differs from the expected one counts all its cases as failed.
func (rs *runState) check(pr passResult, label string) {
	rs.attempted += pr.cases
	failed := pr.failed
	if rs.expect == "" {
		rs.expect = pr.digest
	}
	if pr.digest != rs.expect {
		fmt.Fprintf(rs.out, "%s: digest %s does not match %s\n", label, pr.digest, rs.expect)
		failed = pr.cases
	}
	rs.failed += failed
}

// newPassEnv opens the store one pass needs outside timing: the set-up's
// own for the first pass, then a fresh one per pass for write workloads
// or the filled one for replay. cleanup closes it and removes a fresh
// store.
func (rs *runState) newPassEnv(su setupResult, first bool, tr *obs.Tracer) (passEnv, func(), error) {
	env := passEnv{runner: su.runner, cases: su.plan.cases, tr: tr}
	var (
		storeDir string
		err      error
	)
	switch {
	case !rs.w.useStore:
		return env, func() {}, nil
	case first:
		env.store, storeDir = su.store, su.storeAt
	default:
		if storeDir, err = rs.setupStoreDir(); err != nil {
			return env, nil, err
		}
		if env.store, err = store.Open(storeDir); err != nil {
			return env, nil, err
		}
	}
	cleanup := func() {
		env.store.Close()
		if !rs.w.replay {
			os.RemoveAll(storeDir)
		}
	}
	return env, cleanup, nil
}

// setupStoreDir returns the store a set-up opens: none, a fresh empty one
// for write workloads, or the filled one for replay.
func (rs *runState) setupStoreDir() (string, error) {
	switch {
	case !rs.w.useStore:
		return "", nil
	case rs.w.replay:
		return rs.storeDir, nil
	default:
		return rs.wd.fresh("store")
	}
}

// timedSetups runs the set-up setupReps times and returns the last
// result plus the median wall time. Write workloads open a fresh empty
// store each time; replay opens the filled one.
func (rs *runState) timedSetups() (setupResult, float64, error) {
	var (
		su    setupResult
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		dir, err := rs.setupStoreDir()
		if err != nil {
			return su, 0, err
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup(rs.w, rs.o.seed, rs.workers, dir, nil)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return su, 0, err
		}
		if i < setupReps-1 && s.store != nil {
			s.store.Close()
			if !rs.w.replay {
				os.RemoveAll(dir)
			}
		}
		su = s
	}
	return su, mathx.Median(times), nil
}

// measure runs the workload for the requested time and returns the
// summary line.
func measure(w workload, o options, out io.Writer) (summary, error) {
	rs := &runState{w: w, o: o, workers: workers(), out: out}
	rs.wd = &workDir{root: filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	defer os.RemoveAll(rs.wd.root)
	if o.seed == pinnedSeed {
		rs.expect = pinnedDigests[w.name]
	}
	host := openHostWindow()

	if w.replay {
		dir, err := rs.wd.fresh("store")
		if err != nil {
			return summary{}, err
		}
		d, err := runFill(w, o.seed, dir)
		if err != nil {
			return summary{}, err
		}
		rs.storeDir = dir
		// The replay must reproduce the simulated results exactly.
		rs.check(passResult{digest: d}, "fill")
	}

	var sum summary
	var err error
	if o.trace {
		sum, err = measureTraced(rs)
	} else {
		sum, err = measureEndToEnd(rs)
	}
	if err != nil {
		return summary{}, err
	}
	steal, cpu := host.close()
	fmt.Fprintf(out, "host window: steal_s=%.3f process_cpu_s=%.3f (never a gate)\n", steal, cpu)
	if err := recordRun(o, steal, cpu, sum); err != nil {
		fmt.Fprintln(out, "host window: not recorded:", err)
	}
	if o.trace {
		sum.Metrics["host.steal_s"] = metric{steal, "s"}
		sum.Metrics["host.cpu_s"] = metric{cpu, "s"}
	}
	sum.Attempted, sum.Failed = rs.attempted, rs.failed
	sum.Correct = rs.failed == 0 && rs.attempted > 0
	return sum, nil
}

// endToEndMetrics are the untraced run's metrics, in report order.
// failed_share is not among them: it is zero whenever the benchmark is
// healthy, and the summary line's failed and attempted counts carry it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"campaign_s", "s"}, {"cpu_s", "s"},
	{"peak_rss_mb", "MiB"}, {"alloc_mb", "MiB"},
}

// measureEndToEnd repeats untraced passes until the time is up and
// reports the medians.
func measureEndToEnd(rs *runState) (summary, error) {
	su, setupS, err := rs.timedSetups()
	if err != nil {
		return summary{}, err
	}
	deadline := time.Now().Add(time.Duration(rs.o.seconds * float64(time.Second)))
	var wall, cpu, alloc []float64
	for i := 0; i == 0 || another(deadline, wall); i++ {
		env, cleanup, err := rs.newPassEnv(su, i == 0, nil)
		if err != nil {
			return summary{}, err
		}
		pr, err := runPass(env)
		cleanup()
		if err != nil {
			return summary{}, err
		}
		rs.check(pr, fmt.Sprintf("pass %d", i))
		wall = append(wall, pr.wall)
		cpu = append(cpu, pr.cpu)
		alloc = append(alloc, float64(pr.alloc)/(1<<20))
		fmt.Fprintf(rs.out, "%s pass %d: %d cases, campaign_s=%.4f cpu_s=%.4f alloc_mb=%.1f digest=%.16s\n",
			rs.w.name, i, pr.cases, pr.wall, pr.cpu, float64(pr.alloc)/(1<<20), pr.digest)
	}
	failedShare := 0.0
	if rs.attempted > 0 {
		failedShare = float64(rs.failed) / float64(rs.attempted)
	}
	fmt.Fprintf(rs.out, "%s seed=%d passes=%d workers=%d setup_s=%.4f campaign_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f alloc_mb=%.1f failed_share=%g (%d/%d cases) digest=%s\n",
		rs.w.name, rs.o.seed, len(wall), rs.workers, setupS, mathx.Median(wall), mathx.Median(cpu), peakRSSMB(), mathx.Median(alloc),
		failedShare, rs.failed, rs.attempted, rs.expect)
	values := map[string]float64{
		"setup_s": setupS, "campaign_s": mathx.Median(wall), "cpu_s": mathx.Median(cpu),
		"peak_rss_mb": peakRSSMB(), "alloc_mb": mathx.Median(alloc),
	}
	out := map[string]metric{}
	for _, lm := range endToEndMetrics {
		out[lm.name] = metric{values[lm.name], lm.unit}
	}
	return summary{Metrics: out}, nil
}

// another reports whether one more pass fits: the time left must cover
// at least half a typical pass, so a run overshoots its time by at most
// about half a pass.
func another(deadline time.Time, walls []float64) bool {
	return time.Until(deadline).Seconds() > mathx.Median(walls)/2
}

// recordRun appends the run's host window next to its metrics, one JSON
// line per run, in runs.jsonl under the work directory.
func recordRun(o options, steal, cpu float64, sum summary) error {
	rec := struct {
		Workload   string            `json:"workload"`
		Seed       int64             `json:"seed"`
		Trace      bool              `json:"trace"`
		StealS     float64           `json:"steal_s"`
		ProcessCPU float64           `json:"process_cpu_s"`
		Metrics    map[string]metric `json:"metrics"`
	}{o.workload, o.seed, o.trace, steal, cpu, sum.Metrics}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(o.work, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
