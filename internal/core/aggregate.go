package core

import (
	"slices"
	"sort"
	"strings"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// GroupStats aggregates one table row: the mean metrics over a group of
// runs, in the paper's units.
type GroupStats struct {
	// Label names the group ("Gold Run", "2 seconds", "Gyro Freeze", ...).
	Label string `json:"label"`
	// N is the number of runs aggregated.
	N int `json:"n"`
	// InnerViolations and OuterViolations are mean per-run counts.
	InnerViolations float64 `json:"inner_violations"`
	OuterViolations float64 `json:"outer_violations"`
	// CompletedPct is the percentage of missions completed.
	CompletedPct float64 `json:"completed_pct"`
	// DurationSec and DistanceKm are mean flight duration and distance.
	DurationSec float64 `json:"duration_sec"`
	DistanceKm  float64 `json:"distance_km"`
	// FailedPct is 100 - CompletedPct.
	FailedPct float64 `json:"failed_pct"`
	// CrashPct and FailsafePct split the FAILED runs (timeouts are
	// grouped with failsafe: an operator would have terminated them).
	CrashPct    float64 `json:"crash_pct"`
	FailsafePct float64 `json:"failsafe_pct"`
}

func aggregate(label string, runs []sim.Result) GroupStats {
	g := GroupStats{Label: label, N: len(runs)}
	if len(runs) == 0 {
		return g
	}
	var completed, crashed, failsafed int
	for _, r := range runs {
		g.InnerViolations += float64(r.InnerViolations)
		g.OuterViolations += float64(r.OuterViolations)
		g.DurationSec += r.FlightDurationSec
		g.DistanceKm += r.DistanceKm
		switch r.Outcome {
		case sim.OutcomeCompleted:
			completed++
		case sim.OutcomeCrash:
			crashed++
		default: // failsafe and timeout
			failsafed++
		}
	}
	n := float64(len(runs))
	g.InnerViolations /= n
	g.OuterViolations /= n
	g.DurationSec /= n
	g.DistanceKm /= n
	g.CompletedPct = 100 * float64(completed) / n
	g.FailedPct = 100 - g.CompletedPct
	if failed := crashed + failsafed; failed > 0 {
		g.CrashPct = 100 * float64(crashed) / float64(failed)
		g.FailsafePct = 100 * float64(failsafed) / float64(failed)
	}
	return g
}

// ok filters out infrastructure failures and returns the flight results.
func ok(results []CaseResult) (gold, faulty []CaseResult) {
	for _, cr := range results {
		if cr.Err != "" {
			continue
		}
		if cr.Case.Injection == nil {
			gold = append(gold, cr)
		} else {
			faulty = append(faulty, cr)
		}
	}
	return gold, faulty
}

func sims(crs []CaseResult) []sim.Result {
	out := make([]sim.Result, 0, len(crs))
	for _, cr := range crs {
		out = append(out, cr.Result)
	}
	return out
}

// GoldStats aggregates the fault-free reference runs.
func GoldStats(results []CaseResult) GroupStats {
	gold, _ := ok(results)
	return aggregate("Gold Run", sims(gold))
}

// ByDuration groups faulty runs by injection duration (Table II rows).
// Rows are ordered by increasing duration.
func ByDuration(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	groups := map[time.Duration][]sim.Result{}
	for _, cr := range faulty {
		d := cr.Case.Injection.Duration
		groups[d] = append(groups[d], cr.Result)
	}
	durs := make([]time.Duration, 0, len(groups))
	for d := range groups {
		durs = append(durs, d)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out := make([]GroupStats, 0, len(durs))
	for _, d := range durs {
		out = append(out, aggregate(FormatSec(d.Seconds())+" seconds", groups[d]))
	}
	return out
}

// ByFault groups faulty runs by the 21 injection labels (Table III rows).
// Rows are grouped by component (Acc, Gyro, IMU) and sorted by descending
// completion within each component, matching the paper's presentation.
func ByFault(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	groups := map[string][]sim.Result{}
	for _, cr := range faulty {
		label := cr.Case.Injection.Label()
		groups[label] = append(groups[label], cr.Result)
	}
	labels := make([]string, 0, len(groups))
	for label := range groups {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var out []GroupStats
	for _, target := range reportTargets() {
		var rows []GroupStats
		for _, label := range labels {
			if strings.HasPrefix(label, target.String()+" ") {
				rows = append(rows, aggregate(label, groups[label]))
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			//lint:allow floatcmp exact compare is required for a strict weak sort order
			if rows[i].CompletedPct != rows[j].CompletedPct {
				return rows[i].CompletedPct > rows[j].CompletedPct
			}
			return rows[i].Label < rows[j].Label
		})
		out = append(out, rows...)
	}
	return out
}

// ByComponent groups faulty runs by injection target (Table IV, bottom).
func ByComponent(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	groups := map[faultinject.Target][]sim.Result{}
	for _, cr := range faulty {
		tg := cr.Case.Injection.Target
		groups[tg] = append(groups[tg], cr.Result)
	}
	out := make([]GroupStats, 0, 4)
	for _, tg := range reportTargets() {
		if runs, exists := groups[tg]; exists {
			out = append(out, aggregate(tg.String(), runs))
		}
	}
	return out
}

// reportTargets is the table row order: the paper's three sensor targets
// followed by the actuator extension.
func reportTargets() []faultinject.Target {
	return append(faultinject.Targets(), faultinject.TargetRotor)
}

// ByAirframe groups ALL runs (gold and faulty) by the case's airframe —
// the redundancy comparison: identical fault matrices flown on quad-x,
// hexa-x, and octo-x layouts. An empty Case.Airframe reports as quad-x.
func ByAirframe(results []CaseResult) []GroupStats {
	gold, faulty := ok(results)
	groups := map[string][]sim.Result{}
	for _, cr := range append(gold, faulty...) {
		label := cr.Case.Airframe
		if label == "" {
			label = physics.QuadX.String()
		}
		groups[label] = append(groups[label], cr.Result)
	}
	labels := make([]string, 0, len(groups))
	for label := range groups {
		labels = append(labels, label)
	}
	// Order by rotor count (quad, hexa, octo), unknown labels last.
	sort.Slice(labels, func(i, j int) bool {
		ri, rj := airframeRank(labels[i]), airframeRank(labels[j])
		if ri != rj {
			return ri < rj
		}
		return labels[i] < labels[j]
	})
	out := make([]GroupStats, 0, len(labels))
	for _, label := range labels {
		out = append(out, aggregate(label, groups[label]))
	}
	return out
}

// BySweep groups runs along the sweep axes a spec can span: one row per
// injection start ("T+30 s", faulty runs, ascending) when the results
// span more than one start, then one row per config variant (the compact
// JSON of Case.Overrides, all runs, ascending by value) when they span
// more than one variant. Results on one start and one variant yield no
// rows.
func BySweep(results []CaseResult) []GroupStats {
	gold, faulty := ok(results)
	starts := map[time.Duration][]sim.Result{}
	for _, cr := range faulty {
		st := cr.Case.Injection.Start
		starts[st] = append(starts[st], cr.Result)
	}
	variants := map[string][]sim.Result{}
	byKey := map[string]*Overrides{}
	for _, cr := range append(gold, faulty...) {
		k := variantKey(cr.Case.Overrides)
		variants[k] = append(variants[k], cr.Result)
		byKey[k] = cr.Case.Overrides
	}
	var out []GroupStats
	if len(starts) > 1 {
		keys := make([]time.Duration, 0, len(starts))
		for st := range starts {
			keys = append(keys, st)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, st := range keys {
			out = append(out, aggregate("T+"+FormatSec(st.Seconds())+" s", starts[st]))
		}
	}
	if len(variants) > 1 {
		keys := make([]string, 0, len(variants))
		for k := range variants {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if c := slices.Compare(byKey[keys[i]].sortKey(), byKey[keys[j]].sortKey()); c != 0 {
				return c < 0
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			out = append(out, aggregate(k, variants[k]))
		}
	}
	return out
}

// SpansAirframes reports whether the results span more than one rotor
// layout — only then is the redundancy table worth printing unasked.
func SpansAirframes(results []CaseResult) bool {
	for _, cr := range results {
		if cr.Case.Airframe != results[0].Case.Airframe {
			return true
		}
	}
	return false
}

func airframeRank(label string) int {
	frame, err := physics.ParseAirframe(label)
	if err != nil {
		return physics.MaxRotors + 1
	}
	return frame.Rotors()
}

// Find returns the stats row with the given label, if present.
func Find(rows []GroupStats, label string) (GroupStats, bool) {
	for _, r := range rows {
		if r.Label == label {
			return r, true
		}
	}
	return GroupStats{}, false
}
