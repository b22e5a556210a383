package core_test

import (
	"context"
	"testing"

	"uavres/internal/core"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// hop is a 120 m single-leg mission that keeps sweep tests fast.
func hop() []mission.Mission {
	return []mission.Mission{{
		ID: 1, Name: "hop", CruiseSpeedMS: 3.3, AltitudeM: 15,
		Drone:     mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		Start:     mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{{X: 0, Y: 120, Z: -15}},
	}}
}

// runSweep compiles a one-fault sweep spec on the hop (5 s of the given
// gyro primitive, legacy sweep seeds, no gold run) and runs it.
func runSweep(t *testing.T, prim string, starts []float64, variants []spec.Overrides) []core.CaseResult {
	t.Helper()
	gold := false
	s := spec.CampaignSpec{
		Version: spec.Version,
		Seed:    3,
		Gold:    &gold,
		Matrix: spec.Matrix{
			Targets:      []string{"gyro"},
			Primitives:   []string{prim},
			DurationsSec: []float64{5},
			StartsSec:    starts,
		},
		Seeds:    spec.SeedPolicy{Kind: "affine", EnvStride: 1009, InjStride: 31, InjOffset: 7},
		Variants: variants,
	}
	cases, err := s.Compile(hop())
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner()
	r.Missions = hop()
	r.Workers = 1
	results := r.RunAll(context.Background(), cases)
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Case.ID, res.Err)
		}
	}
	return results
}

// TestSweepSpecGyroThreshold: the threshold variants reach the flight. A
// 30 deg/s gyro-rate threshold trips the failsafe on gyro noise; an
// absurdly high one disables that path.
func TestSweepSpecGyroThreshold(t *testing.T) {
	tight, loose := 30.0, 100000.0
	results := runSweep(t, "noise", []float64{20}, []spec.Overrides{
		{GyroThresholdDegS: &tight},
		{GyroThresholdDegS: &loose},
	})
	if len(results) != 2 {
		t.Fatalf("%d results, want one per variant", len(results))
	}
	if got := results[0].Result.Outcome; got != sim.OutcomeFailsafe {
		t.Errorf("30 deg/s threshold: outcome %v, want failsafe", got)
	}
	if got := results[1].Result.Outcome; got == sim.OutcomeFailsafe {
		t.Errorf("100000 deg/s threshold: outcome %v, want no failsafe", got)
	}
}

// TestSweepSpecStartPastFlightEnd: a fault window opening after the
// flight has landed never activates, so that mission completes while
// the in-flight window does not.
func TestSweepSpecStartPastFlightEnd(t *testing.T) {
	results := runSweep(t, "min", []float64{20, 500}, nil)
	if len(results) != 2 {
		t.Fatalf("%d results, want one per start", len(results))
	}
	if got := results[0].Result.Outcome; got == sim.OutcomeCompleted {
		t.Errorf("in-flight gyro min at T+20 s completed")
	}
	if got := results[1].Result.Outcome; got != sim.OutcomeCompleted {
		t.Errorf("never-activated fault at T+500 s: outcome %v, want completed", got)
	}
}
