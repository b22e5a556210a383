package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// layerMetrics is the traced run's output schema, in report order;
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
var layerMetrics = []metricDef{
	{"spec.compile_ms", "ms"}, {"spec.cases", "count"},
	{"store.open_ms", "ms"}, {"store.index_entries", "count"},
	{"store.lookup_us_p50", "us"}, {"store.lookup_us_tail", "us"},
	{"store.lookups", "count"}, {"store.hit_ratio", "ratio"},
	{"store.put_us_p50", "us"}, {"store.put_us_tail", "us"},
	{"store.puts", "count"}, {"store.bytes_written", "bytes"},
	{"stream.write_us_p50", "us"}, {"stream.bytes", "bytes"}, {"core.tables_ms", "ms"},
	{"core.checkpoint_stage_s", "s"}, {"core.run_stage_s", "s"},
	{"core.prefixes", "count"}, {"core.batches", "count"}, {"core.straight_cases", "count"},
	{"core.worker_busy_share", "ratio"}, {"core.tail_idle_s", "s"},
	{"sim.prefix_s", "s"}, {"sim.snapshot_us", "us"}, {"sim.fork_us", "us"},
	{"sim.batch_s", "s"}, {"sim.batch_detach_share", "ratio"},
	{"sim.case_s", "s"}, {"sim.flight_s", "s"}, {"sim.speed", "s/s"},
	{"physics.step_ns", "ns"}, {"sensors.imu_vote_ns", "ns"}, {"mathx.norm_ns", "ns"},
	{"ekf.predict_ns", "ns"}, {"ekf.predict_decim_ns", "ns"},
	{"ekf.fuse_gps_ns", "ns"}, {"ekf.fuse_baro_ns", "ns"}, {"ekf.fuse_mag_ns", "ns"}, {"ekf.fuse_gravity_ns", "ns"},
	{"control.update_ns", "ns"}, {"failsafe.update_ns", "ns"}, {"bubble.observe_ns", "ns"},
	{"mitigation.rotor_observe_ns", "ns"}, {"physics.reconfig_us", "us"},
	{"physics.steps", "count"}, {"sensors.imu_samples", "count"}, {"ekf.predicts", "count"},
	{"control.updates", "count"}, {"ekf.gps_fusions", "count"}, {"ekf.baro_fusions", "count"},
	{"ekf.gate_reject_share", "ratio"},
	{"attrib.physics_share", "ratio"}, {"attrib.sensors_share", "ratio"}, {"attrib.ekf_share", "ratio"},
	{"attrib.control_share", "ratio"}, {"attrib.failsafe_share", "ratio"}, {"attrib.bubble_share", "ratio"},
	{"attrib.mitigation_share", "ratio"}, {"attrib.fork_share", "ratio"}, {"attrib.store_share", "ratio"},
	{"attrib.stream_share", "ratio"}, {"attrib.tables_share", "ratio"}, {"attrib.residual_share", "ratio"},
	{"obs.trace_overhead_share", "ratio"},
	{"host.steal_s", "s"}, {"host.cpu_s", "s"},
}

// wallClock is the tracer's clock: seconds since the run started.
func wallClock() obs.Clock {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// measureTraced is the separate traced run behind the per-layer metrics:
// a traced set-up, then traced and untraced passes alternating until the
// time is up (their ratio is the tracing overhead), then the per-call
// kernel costs and the cost-model attribution.
func measureTraced(rs *runState) (summary, error) {
	m := map[string]float64{}
	clock := wallClock()

	tr := obs.NewTracer(clock, 8)
	dir, err := rs.setupStoreDir()
	if err != nil {
		return summary{}, err
	}
	su, err := setup(rs.w, rs.o.seed, rs.workers, dir, tr)
	if err != nil {
		return summary{}, err
	}
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "bench.spec":
			m["spec.compile_ms"] = (sp.End - sp.Start) * 1e3
		case "bench.store_open":
			m["store.open_ms"] = (sp.End - sp.Start) * 1e3
		}
	}
	m["spec.cases"] = float64(len(su.plan.cases))
	if su.store != nil {
		m["store.index_entries"] = float64(su.store.Stats().Objects)
	}

	var traced []passLayers
	var plain, tracedWall []float64
	deadline := time.Now().Add(time.Duration(rs.o.seconds * float64(time.Second)))
	for i := 0; i < 2 || another(deadline, plain); i++ {
		var ptr *obs.Tracer
		if i%2 == 1 {
			ptr = obs.NewTracer(clock, 4*len(su.plan.cases))
		}
		env, cleanup, err := rs.newPassEnv(su, i == 0, ptr)
		if err != nil {
			return summary{}, err
		}
		pr, err := runPass(env)
		cleanup()
		if err != nil {
			return summary{}, err
		}
		label := "untraced"
		if ptr != nil {
			label = "traced"
			traced = append(traced, passLayerMetrics(pr, su.plan, rs.workers))
			tracedWall = append(tracedWall, pr.wall)
		} else {
			plain = append(plain, pr.wall)
		}
		rs.check(pr, fmt.Sprintf("%s pass %d", label, i))
		fmt.Fprintf(rs.out, "%s %s pass %d: %d cases, campaign_s=%.4f cpu_s=%.4f digest=%.16s\n",
			rs.w.name, label, i, pr.cases, pr.wall, pr.cpu, pr.digest)
	}
	m["obs.trace_overhead_share"] = mathx.Median(tracedWall)/mathx.Median(plain) - 1
	fmt.Fprintf(rs.out, "%s seed=%d traced_passes=%d untraced_passes=%d workers=%d failed_share=%g (%d/%d cases) digest=%s\n",
		rs.w.name, rs.o.seed, len(tracedWall), len(plain), rs.workers,
		float64(rs.failed)/float64(rs.attempted), rs.failed, rs.attempted, rs.expect)

	costs, err := kernelCosts(su.plan.cfg)
	if err != nil {
		return summary{}, err
	}
	for k, v := range costs {
		m[k] = v
	}
	snap, fork, detach, err := forkCosts(su.plan)
	if err != nil {
		return summary{}, err
	}
	m["sim.snapshot_us"], m["sim.fork_us"], m["sim.batch_detach_share"] = snap, fork, detach

	per := map[string][]float64{}
	for _, pl := range traced {
		pl.attribute(su.plan.cfg, m)
		for k, v := range pl.m {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		m[k] = mathx.Median(vs)
	}

	out := map[string]metric{}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{m[lm.name], lm.unit}
	}
	printAttribution(rs, m)
	return summary{Metrics: out}, nil
}

// printAttribution prints the cost model's per-layer shares for humans.
func printAttribution(rs *runState, m map[string]float64) {
	fmt.Fprintf(rs.out, "%s attribution (computed counts x per-call cost, share of busy time):", rs.w.name)
	for _, lm := range layerMetrics {
		if layer, ok := strings.CutPrefix(lm.name, "attrib."); ok {
			fmt.Fprintf(rs.out, " %s=%.3f", strings.TrimSuffix(layer, "_share"), m[lm.name])
		}
	}
	fmt.Fprintln(rs.out)
}

// simWork is the simulation one pass performed, computed from its case
// plan and results: simulated seconds split by covariance path, plus the
// prefixes and forks the runner's sharing rule implies.
type simWork struct {
	seconds      float64 // all simulated flight time
	exactSeconds float64 // on the exact per-step covariance path
	rotorSeconds float64 // with the rotor FDI monitor armed
	prefixes     int
	forks        int
}

// computeSimWork derives simWork from the outcome fields. Cases served
// from the cache were not simulated and count nothing.
func computeSimWork(p plan, results []core.CaseResult, cached map[string]bool) simWork {
	var w simWork
	cfg := p.cfg
	exactAll := cfg.EKF.CovarianceDecimation <= 1
	rotor := cfg.Mitigation.RotorFDIEnabled()
	dur := map[string]float64{}
	for _, r := range results {
		if !cached[r.Case.Hash] && r.Err == "" {
			dur[r.Case.ID] = r.Result.FlightDurationSec
		}
	}
	// exact is the part of [from, to] on the exact covariance path for a
	// flight with injection inj (never, for a fault-free flight).
	exact := func(inj *faultinject.Injection, from, to float64) float64 {
		if exactAll {
			return to - from
		}
		if inj == nil {
			return 0
		}
		until := (inj.Start + inj.Duration).Seconds() + cfg.CovSettleSec
		return clamp(until, from, to) - from
	}
	add := func(inj *faultinject.Injection, from, to float64) {
		if to <= from {
			return
		}
		w.seconds += to - from
		w.exactSeconds += exact(inj, from, to)
		if rotor {
			w.rotorSeconds += to - from
		}
	}
	grouped := map[string]bool{}
	for _, g := range prefixGroups(p.cases) {
		built := false
		for _, c := range g.cases {
			grouped[c.ID] = true
			d, ok := dur[c.ID]
			if !ok {
				continue
			}
			if !built {
				add(c.Injection, 0, g.start)
				w.prefixes++
				built = true
			}
			add(c.Injection, g.start, d)
			w.forks++
		}
	}
	for _, c := range p.cases {
		if d, ok := dur[c.ID]; ok && !grouped[c.ID] {
			add(c.Injection, 0, d)
		}
	}
	return w
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// spanDur is a span's duration in seconds.
func spanDur(s obs.SpanView) float64 { return s.End - s.Start }

func hasAttr(s obs.SpanView, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key && a.Str == "true" {
			return true
		}
	}
	return false
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []obs.SpanView) map[obs.SpanID]float64 {
	children := map[obs.SpanID][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[obs.SpanID]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = spanDur(s) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total, curLo, curHi := 0.0, lo, lo
	for _, x := range s {
		a, b := clamp(x[0], lo, hi), clamp(x[1], lo, hi)
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// passLayers is one traced pass's per-layer metrics plus what the cost
// model needs from it.
type passLayers struct {
	m    map[string]float64
	sim  simWork
	busy float64 // Σ self time of every span that does work (worker-seconds)
	// measured seconds of the layers timed directly
	storeS, streamS, tablesS float64
	reconfigs                float64
}

// passLayerMetrics derives one traced pass's per-layer metrics from its
// spans, its cache and stream timings, and its results.
func passLayerMetrics(pr passResult, p plan, workers int) passLayers {
	m := map[string]float64{}
	var run obs.SpanView
	for _, s := range pr.spans {
		if s.Name == "stage:run" {
			run = s
		}
	}
	self := selfTimes(pr.spans)
	var (
		busy      [][2]float64 // worker-held intervals in the run stage
		busySum   float64
		lastStart = run.Start
		caseDurs  []float64
		work      float64 // Σ self time of every span that does work
	)
	for _, s := range pr.spans {
		d := spanDur(s)
		unit := false
		switch s.Name {
		case "stage:checkpoint":
			m["core.checkpoint_stage_s"] += d
		case "stage:run":
			m["core.run_stage_s"] += d
		case "prefix":
			m["core.prefixes"]++
			m["sim.prefix_s"] += d
		case "batch":
			m["core.batches"]++
			m["sim.batch_s"] += d
			unit = true
		case "case":
			if !hasAttr(s, "batched") && !hasAttr(s, "cache_hit") {
				m["core.straight_cases"]++
				caseDurs = append(caseDurs, d)
				unit = true
			}
		}
		switch s.Name {
		case "bench.pass", "stage:checkpoint", "stage:run":
			// Coordination: their self time is waiting, not work.
		default:
			work += self[s.ID]
		}
		inRun := s.Start >= run.Start && s.End <= run.End
		if inRun && (unit || s.Name == "bench.on_result" || s.Name == "bench.put") {
			busy = append(busy, [2]float64{s.Start, s.End})
			busySum += d
			if unit && s.Start > lastStart {
				lastStart = s.Start
			}
		}
	}
	if runS := spanDur(run); runS > 0 {
		m["core.worker_busy_share"] = busySum / (float64(workers) * runS)
		tailBusy := 0.0
		for _, b := range busy {
			tailBusy += clamp(b[1], lastStart, run.End) - clamp(b[0], lastStart, run.End)
		}
		m["core.tail_idle_s"] = max(0, float64(workers)*(run.End-lastStart)-tailBusy)
	}
	m["sim.case_s"] = mathx.Median(caseDurs)

	m["store.lookups"] = float64(len(pr.lookups))
	m["store.lookup_us_p50"] = mathx.Median(pr.lookups) * 1e6
	m["store.lookup_us_tail"] = tail(pr.lookups) * 1e6
	if len(pr.lookups) > 0 {
		m["store.hit_ratio"] = float64(len(pr.hits)) / float64(len(pr.lookups))
	}
	m["store.puts"] = float64(len(pr.puts))
	m["store.put_us_p50"] = mathx.Median(pr.puts) * 1e6
	m["store.put_us_tail"] = tail(pr.puts) * 1e6
	m["store.bytes_written"] = float64(pr.putBytes)
	m["stream.write_us_p50"] = mathx.Median(pr.writes) * 1e6
	m["stream.bytes"] = float64(pr.streamed)
	m["core.tables_ms"] = pr.tablesWall * 1e3

	sw := computeSimWork(p, pr.results, pr.hits)
	cfg := p.cfg
	imuTicks := sw.seconds * cfg.IMUSpec.RateHz
	m["sim.flight_s"] = sw.seconds
	if pr.cpu > 0 {
		m["sim.speed"] = sw.seconds / pr.cpu
	}
	m["physics.steps"] = sw.seconds / cfg.PhysicsDt
	m["sensors.imu_samples"] = imuTicks
	m["ekf.predicts"] = imuTicks
	m["control.updates"] = imuTicks
	m["ekf.gps_fusions"] = float64(pr.diag.gpsFusions)
	m["ekf.baro_fusions"] = float64(pr.diag.baroFusions)
	if att := pr.diag.gpsFusions + pr.diag.gpsRejects + pr.diag.baroFusions + pr.diag.baroRejects; att > 0 {
		m["ekf.gate_reject_share"] = float64(pr.diag.gpsRejects+pr.diag.baroRejects) / float64(att)
	}

	return passLayers{
		m: m, sim: sw, busy: work,
		storeS: total(pr.lookups) + total(pr.puts), streamS: total(pr.writes), tablesS: pr.tablesWall,
		reconfigs: float64(pr.diag.reconfigs),
	}
}

// Fixed tick rates of the vehicle loop (sim.NewVehicle): gravity fusion
// and the failsafe monitor.
const (
	gravityHz  = 25
	failsafeHz = 50
)

// attribute adds attrib.<layer>_share entries to the pass's metrics:
// each layer's predicted seconds — computed count × per-call cost from
// costs, or the measured time for the layers timed directly — over the
// pass's busy time. What no layer explains is the residual.
func (pl passLayers) attribute(cfg sim.Config, costs map[string]float64) {
	ns := func(k string) float64 { return costs[k] * 1e-9 }
	simS, exactS := pl.sim.seconds, pl.sim.exactSeconds
	imuHz := cfg.IMUSpec.RateHz
	imu := simS * imuHz
	layers := map[string]float64{
		"physics": simS / cfg.PhysicsDt * ns("physics.step_ns"),
		"sensors": imu * ns("sensors.imu_vote_ns"),
		"ekf": exactS*imuHz*ns("ekf.predict_ns") + (simS-exactS)*imuHz*ns("ekf.predict_decim_ns") +
			simS*(cfg.GPSSpec.RateHz*ns("ekf.fuse_gps_ns")+cfg.BaroSpec.RateHz*ns("ekf.fuse_baro_ns")+
				cfg.MagSpec.RateHz*ns("ekf.fuse_mag_ns")+gravityHz*ns("ekf.fuse_gravity_ns")),
		"control":  imu * ns("control.update_ns"),
		"failsafe": simS * failsafeHz * ns("failsafe.update_ns"),
		"bubble":   simS / cfg.TrackingInterval * ns("bubble.observe_ns"),
		"mitigation": pl.sim.rotorSeconds*imuHz*ns("mitigation.rotor_observe_ns") +
			pl.reconfigs*costs["physics.reconfig_us"]*1e-6,
		"fork":   (float64(pl.sim.prefixes)*costs["sim.snapshot_us"] + float64(pl.sim.forks)*costs["sim.fork_us"]) * 1e-6,
		"store":  pl.storeS,
		"stream": pl.streamS,
		"tables": pl.tablesS,
	}
	residual := 1.0
	for layer, s := range layers {
		share := 0.0
		if pl.busy > 0 {
			share = s / pl.busy
		}
		pl.m["attrib."+layer+"_share"] = share
		residual -= share
	}
	pl.m["attrib.residual_share"] = residual
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// forkCosts times Vehicle.Snapshot and Checkpoint.ForkWithInjection on the
// workload's first shared prefix (mission 1 at the paper's injection
// start when the workload shares none), and runs sim.NewBatch on that
// prefix group's first lockstep chunk to measure the share of forks the
// batch detached.
func forkCosts(p plan) (snapshotUs, forkUs, detachShare float64, err error) {
	var (
		c     core.Case
		start = float64(core.InjectionStartSec)
		group []core.Case
	)
	if groups := prefixGroups(p.cases); len(groups) > 0 {
		group = groups[0].cases
		if len(group) > core.DefaultBatchWidth {
			group = group[:core.DefaultBatchWidth]
		}
		c, start = group[0], groups[0].start
	} else {
		c = p.cases[0]
	}
	cfg := p.cfg
	cfg.Seed = c.Seed
	if c.Airframe != "" {
		frame, err := physics.ParseAirframe(c.Airframe)
		if err != nil {
			return 0, 0, 0, err
		}
		cfg.Airframe.Layout = frame
	}
	var ms mission.Mission
	for _, x := range mission.Valencia() {
		if x.ID == c.MissionID {
			ms = x
		}
	}
	v, err := sim.NewVehicle(cfg, ms, c.Injection, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	v.RunUntil(start)
	cp := v.Snapshot()
	snapshotUs = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			cp = v.Snapshot()
		}
	}) / 1e3
	fork := func() error { _, err := cp.ForkWithInjection(c.Injection, nil); return err }
	if c.Injection == nil {
		fork = func() error { _, err := cp.Fork(nil); return err }
	}
	var ferr error
	forkUs = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			if err := fork(); err != nil && ferr == nil {
				ferr = err
			}
		}
	}) / 1e3
	if ferr != nil {
		return 0, 0, 0, ferr
	}
	if len(group) == 0 {
		return snapshotUs, forkUs, 0, nil
	}
	injs := make([]*faultinject.Injection, len(group))
	for i, gc := range group {
		injs[i] = gc.Injection
	}
	b, err := sim.NewBatch(cp, injs)
	if err != nil {
		return 0, 0, 0, err
	}
	_, detached, err := b.Run()
	if err != nil {
		return 0, 0, 0, err
	}
	n := 0
	for _, d := range detached {
		if d {
			n++
		}
	}
	return snapshotUs, forkUs, float64(n) / float64(len(detached)), nil
}
