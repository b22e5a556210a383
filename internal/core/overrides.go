package core

import (
	"encoding/json"
	"fmt"
	"math"

	"uavres/internal/mathx"
	"uavres/internal/sim"
)

// Overrides are the spec-addressable simulation-config knobs. Pointers
// distinguish "leave the default" (null) from an explicit value. A
// campaign spec sets them once for every case (spec overrides, folded
// into Runner.Config) and once per config variant (Case.Overrides,
// folded in per case on top of Runner.Config).
type Overrides struct {
	// GyroThresholdDegS overrides the failsafe gyro-rate threshold
	// (paper default 60 deg/s).
	GyroThresholdDegS *float64 `json:"gyro_threshold_deg_s,omitempty"`
	// RiskR overrides the outer-bubble risk factor (paper: 1).
	RiskR *float64 `json:"risk_r,omitempty"`
	// CovDecimation overrides the EKF covariance decimation factor.
	CovDecimation *int `json:"cov_decimation,omitempty"`
	// CovSettleSec overrides the post-fault full-rate settle window.
	CovSettleSec *float64 `json:"cov_settle_sec,omitempty"`
	// RedundancyVoting toggles cross-IMU consistency voting.
	RedundancyVoting *bool `json:"redundancy_voting,omitempty"`
	// RNGPolicy selects the environment normal-deviate sampler: "polar"
	// (default, bit-compatible with recorded campaigns) or "ziggurat"
	// (see mathx.ParseNormPolicy).
	RNGPolicy *string `json:"rng_policy,omitempty"`
	// RotorReconfig, when true, arms the per-rotor FDI monitor and the
	// reconfiguring control allocator (mitigation.RotorDefaults) — the
	// mitigation actuator faults need. Omitted or false leaves the legacy
	// sensor-only pipeline (and its fingerprints) untouched.
	RotorReconfig *bool `json:"rotor_reconfig,omitempty"`
}

// Apply folds the overrides into a simulation config.
func (o Overrides) Apply(cfg *sim.Config) {
	if o.RNGPolicy != nil {
		cfg.RNGPolicy = *o.RNGPolicy
	}
	if o.GyroThresholdDegS != nil {
		cfg.Failsafe.GyroRateThreshold = mathx.Deg2Rad(*o.GyroThresholdDegS)
	}
	if o.RiskR != nil {
		cfg.RiskR = *o.RiskR
	}
	if o.CovDecimation != nil {
		cfg.EKF.CovarianceDecimation = *o.CovDecimation
	}
	if o.CovSettleSec != nil {
		cfg.CovSettleSec = *o.CovSettleSec
	}
	if o.RedundancyVoting != nil {
		cfg.RedundancyVoting = *o.RedundancyVoting
	}
	if o.RotorReconfig != nil && *o.RotorReconfig {
		cfg.Mitigation = cfg.Mitigation.RotorDefaults()
	}
}

// Validate rejects values the simulation would silently clamp or
// misread: the outer bubble clamps R < 1 to 1, and a non-positive gyro
// threshold trips the failsafe on every sample.
func (o Overrides) Validate() error {
	if o.GyroThresholdDegS != nil && *o.GyroThresholdDegS <= 0 {
		return fmt.Errorf("gyro_threshold_deg_s %g <= 0", *o.GyroThresholdDegS)
	}
	if o.RiskR != nil && *o.RiskR < 1 {
		return fmt.Errorf("risk_r %g < 1", *o.RiskR)
	}
	if o.CovDecimation != nil && *o.CovDecimation < 1 {
		return fmt.Errorf("cov_decimation %d < 1", *o.CovDecimation)
	}
	if o.CovSettleSec != nil && *o.CovSettleSec < 0 {
		return fmt.Errorf("cov_settle_sec %g < 0", *o.CovSettleSec)
	}
	if o.RNGPolicy != nil {
		if _, err := mathx.ParseNormPolicy(*o.RNGPolicy); err != nil {
			return err
		}
	}
	return nil
}

// variantKey is the compact JSON of a case's config variant, "" for
// none: the identity prefix sharing and the sweep table group by.
func variantKey(o *Overrides) string {
	if o == nil {
		return ""
	}
	// A struct of scalar pointers always marshals.
	b, _ := json.Marshal(o)
	return string(b)
}

// sortKey lists the variant's values in field order, unset fields
// lowest, so a one-axis sweep's rows order by value. The campaign-wide
// RNG policy never varies and is left out.
func (o *Overrides) sortKey() []float64 {
	if o == nil {
		return nil
	}
	num := func(p *float64) float64 {
		if p == nil {
			return math.Inf(-1)
		}
		return *p
	}
	flag := func(p *bool) float64 {
		switch {
		case p == nil:
			return -1
		case *p:
			return 1
		}
		return 0
	}
	decim := math.Inf(-1)
	if o.CovDecimation != nil {
		decim = float64(*o.CovDecimation)
	}
	return []float64{num(o.GyroThresholdDegS), num(o.RiskR), decim,
		num(o.CovSettleSec), flag(o.RedundancyVoting), flag(o.RotorReconfig)}
}
