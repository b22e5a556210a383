package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"uavres/internal/core"
	"uavres/internal/obs"
	"uavres/internal/store"
)

// passResult is what one workload pass measured and produced.
type passResult struct {
	wall, cpu float64 // seconds
	alloc     uint64  // bytes allocated by the process during the pass
	digest    string
	cases     int
	failed    int // cases with Err set or a corrupt store read
	diag      diagTotals
	results   []core.CaseResult // flat outcome fields only

	// Filled on traced passes only.
	spans      []obs.SpanView
	lookups    []float64       // seconds per Cache.Lookup
	puts       []float64       // seconds per Cache.Store
	writes     []float64       // seconds per ResultsWriter.Write
	hits       map[string]bool // fingerprints served from the cache
	streamed   int64           // bytes the ResultsWriter emitted
	putBytes   int64           // bytes the store persisted
	tablesWall float64
}

// diagTotals sums the recorder counters of every streamed result.
type diagTotals struct {
	gpsFusions, gpsRejects   int64
	baroFusions, baroRejects int64
	reconfigs                int64
}

func (d *diagTotals) add(res core.CaseResult) {
	g := res.Result.Diagnostics
	if g == nil {
		return
	}
	d.gpsFusions += g.GPSFusions
	d.gpsRejects += g.GPSGateRejects
	d.baroFusions += g.BaroFusions
	d.baroRejects += g.BaroGateRejects
	for _, e := range g.Trace {
		if e.Kind == obs.EventMitigation && e.Detail == "rotor-reconfig" {
			d.reconfigs++
		}
	}
}

// byteCounter is the results stream's destination: it counts the bytes
// and keeps none. The benchmark measures the encoding, not the host's
// disk, whose write-back traffic would add noise the program does not
// cause.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// timedCache wraps a core.ResultCache and records the duration of every
// Lookup and Store, plus a span per call when a tracer is attached. The
// runner calls Lookup from one goroutine and Store under its result lock,
// so the slices need no further synchronisation.
type timedCache struct {
	inner   core.ResultCache
	tr      *obs.Tracer
	parent  obs.SpanID
	lookups []float64
	puts    []float64
	hits    map[string]bool
}

func (c *timedCache) Lookup(hash string) (core.CaseResult, bool) {
	sp := c.tr.Start("bench.lookup", c.parent)
	t0 := time.Now()
	res, ok := c.inner.Lookup(hash)
	c.lookups = append(c.lookups, time.Since(t0).Seconds())
	c.tr.End(sp)
	if ok {
		c.hits[hash] = true
	}
	return res, ok
}

func (c *timedCache) Store(res core.CaseResult) {
	sp := c.tr.Start("bench.put", c.parent)
	t0 := time.Now()
	c.inner.Store(res)
	c.puts = append(c.puts, time.Since(t0).Seconds())
	c.tr.End(sp)
}

// passEnv is what a pass needs: the runner and cases, the store (nil for
// none), and an optional tracer.
type passEnv struct {
	runner *core.Runner
	cases  []core.Case
	store  *store.Store
	tr     *obs.Tracer
}

// runPass executes one workload pass: RunAll over every case with each
// result streamed through a ResultsWriter (and offered to the store when
// one is wired), then Tables II-IV (and the airframe table when the plan
// flies several airframes). Wall time, CPU time and allocation cover
// exactly that span.
func runPass(env passEnv) (passResult, error) {
	var pr passResult
	cw := &byteCounter{}
	rw := core.NewResultsWriter(cw)

	r := *env.runner
	tr := env.tr
	var root obs.SpanID
	if tr != nil {
		root = tr.Start("bench.pass", 0)
		r.Trace, r.TraceRoot = tr, root
	}
	var cache *timedCache
	var before store.Stats
	if env.store != nil {
		before = env.store.Stats()
		cache = &timedCache{inner: env.store, tr: tr, parent: root, hits: map[string]bool{}}
		r.Cache = cache
	}
	var writeErr error
	r.OnResult = func(res core.CaseResult) {
		sp := tr.Start("bench.on_result", root)
		if cache == nil || !cache.hits[res.Case.Hash] {
			pr.diag.add(res)
		}
		ws := tr.Start("bench.stream_write", sp)
		t0 := time.Now()
		if err := rw.Write(res); err != nil && writeErr == nil {
			writeErr = err
		}
		if tr != nil {
			pr.writes = append(pr.writes, time.Since(t0).Seconds())
		}
		tr.End(ws)
		tr.End(sp)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	cpuBefore := processCPU()
	t0 := time.Now()

	results := r.RunAll(context.Background(), env.cases)
	if err := rw.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	ts := tr.Start("bench.tables", root)
	tablesStart := time.Now()
	tables := core.RenderTableII(results) + core.RenderTableIII(results) + core.RenderTableIV(results)
	if multiAirframe(env.cases) {
		tables += core.RenderAirframeTable(results)
	}
	pr.tablesWall = time.Since(tablesStart).Seconds()
	tr.End(ts)

	pr.wall = time.Since(t0).Seconds()
	pr.cpu = processCPU() - cpuBefore
	runtime.ReadMemStats(&ms)
	pr.alloc = ms.TotalAlloc - allocBefore
	tr.End(root)

	if writeErr != nil {
		return pr, fmt.Errorf("streaming results: %w", writeErr)
	}
	if len(tables) == 0 {
		return pr, fmt.Errorf("empty tables")
	}
	pr.cases = len(results)
	for _, res := range results {
		if res.Err != "" {
			pr.failed++
		}
	}
	if env.store != nil {
		st := env.store.Stats()
		pr.failed += int(st.Corrupt - before.Corrupt)
		pr.putBytes = st.Bytes - before.Bytes
		if err := env.store.Err(); err != nil {
			return pr, err
		}
		pr.lookups, pr.puts, pr.hits = cache.lookups, cache.puts, cache.hits
	}
	pr.streamed = cw.n
	pr.digest = digest(results)
	pr.results = results
	if tr != nil {
		pr.spans = tr.Spans()
	}
	return pr, nil
}

// multiAirframe reports whether the plan flies more than one airframe.
func multiAirframe(cases []core.Case) bool {
	for _, c := range cases {
		if c.Airframe != cases[0].Airframe {
			return true
		}
	}
	return false
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it (the maximum when there are ten or fewer samples).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}
