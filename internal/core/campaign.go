// Package core orchestrates the paper's fault-injection campaign: it
// plans the 850 experiment cases (21 injection types x 10 missions x 4
// durations + 10 gold runs), fans them out over a worker pool, and
// aggregates results into the paper's Tables II, III, and IV.
package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/sim"
)

// InjectionStartSec is when faults begin: the paper injects at the
// 90-second mark after take-off.
const InjectionStartSec = 90

// Durations are the paper's four injection durations.
func Durations() []time.Duration {
	return []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
}

// Case is one experiment: a mission plus an optional injection.
type Case struct {
	// ID is a stable, human-readable case identifier,
	// e.g. "m04-gyro-freeze-10s" or "m04-gold".
	ID string `json:"id"`
	// MissionID selects the Valencia mission (1..10).
	MissionID int `json:"mission_id"`
	// Injection is nil for gold runs.
	Injection *faultinject.Injection `json:"injection,omitempty"`
	// Seed drives the run's environment randomness.
	Seed int64 `json:"seed"`
	// Airframe names the rotor layout the case flies ("hexa-x", "octo-x");
	// empty means the default quad-x, so pre-airframe plans and stored
	// results keep their fingerprints.
	Airframe string `json:"airframe,omitempty"`
	// Overrides is the case's config variant, applied on top of the
	// runner's base config (see spec.CampaignSpec.Variants); nil for
	// every case of a spec without variants, so their fingerprints stay
	// put.
	Overrides *Overrides `json:"overrides,omitempty"`
	// Hash is the case's content fingerprint: a stable digest of the
	// experiment description plus the code-relevant simulation config
	// (see internal/spec.Fingerprint). Cases planned outside the spec
	// compiler leave it empty; resume never reuses a hashless case.
	Hash string `json:"hash,omitempty"`
}

// Plan generates the full campaign: for every mission, every target x
// primitive (21 injection types), every duration — 840 faulty cases —
// plus one gold case per mission: 850 total, matching the paper's count.
// baseSeed makes the whole campaign reproducible.
//
// Every case of one mission shares one environment seed: the paper's
// experiment varies the FAULT between cases, not the weather, and the
// shared seed is what lets the runner simulate the common 90-second
// pre-injection prefix once per mission and fork it per case
// (checkpoint-and-fork; see Runner). Injection randomness stays per-case
// via the injection's own seed.
func Plan(missions []mission.Mission, baseSeed int64) []Case {
	durations := Durations()
	cases := make([]Case, 0, len(missions)*(len(durations)*21+1))
	for _, m := range missions {
		envSeed := CaseSeed(baseSeed, m.ID, 0, 0, 0)
		cases = append(cases, Case{
			ID:        fmt.Sprintf("m%02d-gold", m.ID),
			MissionID: m.ID,
			Seed:      envSeed,
		})
		for _, target := range faultinject.Targets() {
			for _, prim := range faultinject.Primitives() {
				for _, dur := range durations {
					inj := &faultinject.Injection{
						Primitive: prim,
						Target:    target,
						Start:     InjectionStartSec * time.Second,
						Duration:  dur,
						Seed:      CaseSeed(baseSeed+1, m.ID, int(target), int(prim), int(dur.Seconds())),
					}
					cases = append(cases, Case{
						ID: fmt.Sprintf("m%02d-%s-%s-%ds", m.ID,
							Slug(target.String()), Slug(prim.String()), int(dur.Seconds())),
						MissionID: m.ID,
						Injection: inj,
						Seed:      envSeed,
					})
				}
			}
		}
	}
	return cases
}

// CaseSeed derives a deterministic, well-spread seed for one case
// (splitmix64-style mixing). It is the "mixed" seed policy of the spec
// compiler (internal/spec) and the seed function of the legacy Plan;
// both must agree bit-for-bit, which is why it lives here once.
func CaseSeed(base int64, mission, target, prim, durSec int) int64 {
	x := uint64(base)*0x9E3779B97F4A7C15 ^
		uint64(mission)*0xBF58476D1CE4E5B9 ^
		uint64(target)*0x94D049BB133111EB ^
		uint64(prim)*0xD6E8FEB86659FD93 ^
		uint64(durSec)*0xA0761D6478BD642F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1) // keep it positive
}

// Slug lowercases a paper label and compresses spaces away
// ("Fixed Value" -> "fixedvalue"): the case-ID naming convention shared
// by Plan and the spec compiler.
func Slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ':
			// compress spaces away: "Fixed Value" -> "fixedvalue"
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// FormatSec renders seconds compactly and uniquely: integers without a
// decimal point (matching the legacy "%d" IDs), fractions as shortest
// round-trip decimals. Case IDs and table labels share it.
func FormatSec(v float64) string {
	//lint:allow floatcmp exact integrality test on a spec-authored literal, not a computed value
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CaseResult pairs a case with its outcome.
type CaseResult struct {
	Case   Case       `json:"case"`
	Result sim.Result `json:"result"`
	// Err records a per-case execution failure (infrastructure, not
	// flight failure); successful runs leave it empty.
	Err string `json:"err,omitempty"`
}
