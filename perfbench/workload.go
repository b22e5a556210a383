package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"uavres/internal/core"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/sim"
	"uavres/internal/spec"
	"uavres/internal/store"
)

// workload is one named input set. Its cases come only from spec
// documents instantiated with the run's seed, so the program under test
// receives nothing but the generated plan.
type workload struct {
	name string
	// spec is the campaign document of one pass; "%d" is replaced by a
	// seed derived from the workload seed (see specSeeds).
	spec string
	// seeds instantiates the document this many times with distinct
	// seeds; case IDs then get a "-s<k>" suffix so they stay unique.
	seeds int
	// useStore gives the runner a result store: a fresh one per pass
	// (writes) or, with replay, one filled once before timing (reads).
	useStore bool
	replay   bool
}

// The paper's 850-case design, as shipped in examples/specs/paper-850.json,
// sliced to its 30 s injections plus the gold runs: 220 cases over all ten
// missions, the 210 faulty flights forked off ten shared 90 s prefixes.
// A slice across missions rather than of whole missions: every mission
// has one environment seed, so a two-mission slice rests on two weather
// draws and its simulated time swings by a fifth between seeds, where
// this slice's swings by under a twentieth (interquartile range over
// median, eight seeds of full campaigns).
const paperForkSpec = `{
  "version": 1,
  "name": "paper-850",
  "seed": %d,
  "matrix": {
    "targets": ["acc", "gyro", "imu"],
    "primitives": ["fixed", "zeros", "freeze", "random", "min", "max", "noise"],
    "durations_sec": [2, 5, 10, 30],
    "starts_sec": [90],
    "scope": "all"
  },
  "select": [{"duration_sec": 10}, {"gold": true}]
}`

// The paper design's ten fault-free reference flights.
const goldSpec = `{
  "version": 1,
  "name": "gold-straight",
  "seed": %d,
  "select": [{"gold": true}]
}`

// examples/specs/redundancy-matrix.json restricted to its actuator faults
// (loe/stuck/float on rotor 0) on the hexa-x and octo-x airframes, with
// rotor FDI and reconfigured allocation armed.
const hexaSpec = `{
  "version": 1,
  "name": "redundancy-matrix",
  "seed": %d,
  "airframes": ["quad-x", "hexa-x", "octo-x"],
  "matrix": {
    "targets": ["acc", "gyro", "imu"],
    "primitives": ["fixed", "zeros", "freeze", "random", "min", "max", "noise"],
    "actuators": ["loe", "stuck", "float"],
    "actuator_rotors": [0],
    "durations_sec": [10],
    "starts_sec": [90],
    "scope": "all"
  },
  "overrides": {"rotor_reconfig": true},
  "select": [{"id": "m0[1-4]-r0-*-hexa"}, {"id": "m0[1-4]-r0-*-octo"}]
}`

// workloads is the benchmark's fixed workload table, in report order.
var workloads = []workload{
	{name: "paper-fork", spec: paperForkSpec, seeds: 1, useStore: true},
	{name: "gold-straight", spec: goldSpec, seeds: 2},
	{name: "store-replay", spec: paperForkSpec, seeds: 1, useStore: true, replay: true},
	{name: "hexa-reconfig", spec: hexaSpec, seeds: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specSeeds derives the spec seeds of one pass from the workload seed.
// The first instance uses the workload seed itself; further instances
// are spaced far apart so neighbouring workload seeds share no flights.
func specSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = seed + int64(k)<<32
	}
	return out
}

// plan is a workload compiled against the scenario: the cases of one pass
// and the runner configuration they were fingerprinted under.
type plan struct {
	cases []core.Case
	cfg   sim.Config
}

// compile parses, compiles and fingerprints the workload's spec for a
// seed. Every instance shares the spec's overrides, so all cases run
// under one config.
func (w workload) compile(seed int64) (plan, error) {
	var p plan
	scenario := mission.Valencia()
	for k, s := range specSeeds(seed, w.seeds) {
		sp, err := spec.Parse([]byte(fmt.Sprintf(w.spec, s)))
		if err != nil {
			return plan{}, err
		}
		cases, err := sp.Compile(scenario)
		if err != nil {
			return plan{}, err
		}
		if w.seeds > 1 {
			for i := range cases {
				cases[i].ID = fmt.Sprintf("%s-s%d", cases[i].ID, k)
			}
		}
		p.cfg = sim.DefaultConfig()
		sp.Overrides.Apply(&p.cfg)
		spec.AttachFingerprints(cases, p.cfg)
		p.cases = append(p.cases, cases...)
	}
	if len(p.cases) == 0 {
		return plan{}, fmt.Errorf("workload %s: no cases", w.name)
	}
	return p, nil
}

// newRunner builds the default campaign runner (checkpoint + lockstep
// batch) for a plan.
func newRunner(p plan, workers int) *core.Runner {
	r := core.NewRunner()
	r.Config = p.cfg
	r.Workers = workers
	return r
}

// workDir hands out fresh scratch directories under one root.
type workDir struct {
	root string
	n    int
}

func (d *workDir) fresh(label string) (string, error) {
	d.n++
	dir := filepath.Join(d.root, fmt.Sprintf("%s-%03d", label, d.n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupResult is everything one set-up produces before the first case is
// scheduled.
type setupResult struct {
	plan    plan
	store   *store.Store
	storeAt string
	runner  *core.Runner
}

// setup runs the work a campaign does before it schedules its first case:
// spec parse/compile/fingerprint, store.Open with its index load, and
// runner construction. storeDir is the store to open ("" for none). A
// non-nil tracer records a span around the spec stage and the store open.
func setup(w workload, seed int64, workers int, storeDir string, tr *obs.Tracer) (setupResult, error) {
	var s setupResult
	sp := tr.Start("bench.spec", 0)
	p, err := w.compile(seed)
	tr.End(sp)
	if err != nil {
		return s, err
	}
	s.plan = p
	if storeDir != "" {
		sp := tr.Start("bench.store_open", 0)
		st, err := store.Open(storeDir)
		tr.End(sp)
		if err != nil {
			return s, err
		}
		s.store, s.storeAt = st, storeDir
	}
	s.runner = newRunner(p, workers)
	return s, nil
}

// prefixGroup is a set of cases the runner simulates off one shared
// prefix: same mission, environment seed, airframe, injection family,
// scope and start (the runner's own sharing rule, recomputed from the
// public case fields).
type prefixGroup struct {
	start float64
	cases []core.Case
}

func prefixGroups(cases []core.Case) []prefixGroup {
	idx := map[string]int{}
	var groups []prefixGroup
	for _, c := range cases {
		if c.Injection == nil || c.Injection.Start <= 0 {
			continue
		}
		key := fmt.Sprintf("%d|%d|%s|%v|%d|%d", c.MissionID, c.Seed, c.Airframe,
			c.Injection.SensorTarget(), c.Injection.Scope, c.Injection.Start)
		i, ok := idx[key]
		if !ok {
			i = len(groups)
			idx[key] = i
			groups = append(groups, prefixGroup{start: c.Injection.Start.Seconds()})
		}
		groups[i].cases = append(groups[i].cases, c)
	}
	shared := groups[:0]
	for _, g := range groups {
		if len(g.cases) >= 2 {
			shared = append(shared, g)
		}
	}
	sort.SliceStable(shared, func(i, j int) bool { return shared[i].cases[0].ID < shared[j].cases[0].ID })
	return shared
}
