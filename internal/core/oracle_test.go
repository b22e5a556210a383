package core_test

import (
	"context"
	"reflect"
	"testing"

	"uavres/internal/core"
	"uavres/internal/mission"
	"uavres/internal/physics"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// TestDefaultRunnerMatchesSimRun holds the one execution mode the runner
// has — shared prefixes, checkpoint forks, lockstep batches — against the
// simplest possible oracle: every case flown straight through sim.Run on
// its own. Full results must be equal case by case. The three slices are
// the hexa actuator mini-spec (rotor FDI and allocation reconfig, hexa
// physics), mission 1's gyro cases of the paper spec, and mission 1 of
// the gyro-threshold sweep (one case per config variant, so a prefix
// shared across variants would fly the wrong threshold).
func TestDefaultRunnerMatchesSimRun(t *testing.T) {
	hexa, err := spec.Load("../../examples/specs/mini-hexa-actuator.json")
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := spec.Load("../../examples/specs/sweep-gyro-threshold.json")
	if err != nil {
		t.Fatal(err)
	}
	gyro, err := spec.ParseSelector("mission=1,target=gyro")
	if err != nil {
		t.Fatal(err)
	}
	mission1, err := spec.ParseSelector("mission=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec spec.CampaignSpec
		sel  []spec.Selector
		want int
	}{
		{"mini-hexa-actuator", hexa, nil, 4},
		{"paper-mission1-gyro", spec.Paper(1), []spec.Selector{gyro}, 28},
		{"sweep-gyro-threshold-mission1", threshold, []spec.Selector{mission1}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cases, err := tc.spec.Compile(mission.Valencia())
			if err != nil {
				t.Fatal(err)
			}
			cases = spec.ApplySelectors(cases, tc.sel)
			if len(cases) != tc.want {
				t.Fatalf("%d cases, want %d", len(cases), tc.want)
			}
			r := core.NewRunner()
			tc.spec.Overrides.Apply(&r.Config)
			got := r.RunAll(context.Background(), cases)

			for i, c := range cases {
				if got[i].Err != "" {
					t.Errorf("%s: runner error %s", c.ID, got[i].Err)
					continue
				}
				want := straightRun(t, tc.spec, c)
				if !reflect.DeepEqual(got[i].Result, want) {
					t.Errorf("%s: runner result differs from sim.Run:\n runner %+v\n sim    %+v",
						c.ID, got[i].Result, want)
				}
			}
		})
	}
}

// straightRun flies one case straight through sim.Run with its config
// built the way every entry point builds it: spec overrides, then the
// case seed, then the case's config variant, then the case airframe.
func straightRun(t *testing.T, s spec.CampaignSpec, c core.Case) sim.Result {
	t.Helper()
	cfg := sim.DefaultConfig()
	s.Overrides.Apply(&cfg)
	cfg.Seed = c.Seed
	if c.Overrides != nil {
		c.Overrides.Apply(&cfg)
	}
	if c.Airframe != "" {
		frame, err := physics.ParseAirframe(c.Airframe)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Airframe.Layout = frame
	}
	var m mission.Mission
	for _, cand := range mission.Valencia() {
		if cand.ID == c.MissionID {
			m = cand
		}
	}
	res, err := sim.Run(cfg, m, c.Injection, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	return res
}
