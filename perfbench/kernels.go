package main

import (
	"fmt"
	"time"

	"uavres/internal/bubble"
	"uavres/internal/control"
	"uavres/internal/ekf"
	"uavres/internal/failsafe"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/physics"
	"uavres/internal/sensors"
	"uavres/internal/sim"
)

// sink keeps measured calls from being optimised away.
var sink float64

// perCallNs times fn(n), which must make n calls of one kernel, and
// returns the median nanoseconds per call over five repetitions of a
// batch sized to take at least 10 ms.
func perCallNs(fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= 10*time.Millisecond || n >= 1<<30 {
			break
		}
		n *= 2
	}
	reps := make([]float64, 5)
	for i := range reps {
		t0 := time.Now()
		fn(n)
		reps[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return mathx.Median(reps)
}

// kernelCosts measures the per-call cost of each simulation layer's
// public per-tick function on representative inputs: a hovering
// airframe, a level filter fed consistent measurements, nominal failsafe
// observations, healthy rotors. Keys are metric names.
func kernelCosts(cfg sim.Config) (map[string]float64, error) {
	m := map[string]float64{}
	hover := physics.DefaultParams().HoverThrustFraction()
	still := sensors.IMUSample{Accel: mathx.V3(0, 0, -physics.Gravity), Gyro: mathx.V3(0.01, -0.02, 0.005)}

	body, err := physics.NewBody(physics.DefaultParams(), physics.CalmWind())
	if err != nil {
		return nil, err
	}
	body.SetMotorCommands(physics.Rotors{hover, hover, hover, hover})
	st := body.State()
	st.Pos.Z = -20
	body.SetState(st)
	m["physics.step_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			body.Step(cfg.PhysicsDt)
		}
	})

	imus, err := sensors.NewRedundantIMUs(cfg.IMUCount, cfg.IMUSpec, mathx.NewRand(3))
	if err != nil {
		return nil, err
	}
	buf := make([]sensors.IMUSample, 0, cfg.IMUCount)
	m["sensors.imu_vote_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			all := imus.SampleAllInto(buf, float64(i)/cfg.IMUSpec.RateHz, still.Accel, still.Gyro)
			if sensors.VoteOutlier(all, imus.Primary(), cfg.VoteAccelTol, cfg.VoteGyroTol) {
				sink++
			}
		}
	})

	m["mathx.norm_ns"] = perCallNs(func(n int) {
		v := mathx.V3(1, 2, 3)
		for i := 0; i < n; i++ {
			v.X = float64(i)
			sink += v.Norm()
		}
	})

	predict := func(k int) float64 {
		ec := cfg.EKF
		ec.CovarianceDecimation = k
		f := ekf.New(ec)
		s := still
		return perCallNs(func(n int) {
			for i := 0; i < n; i++ {
				s.T = float64(i) / cfg.IMUSpec.RateHz
				f.Predict(s, 1/cfg.IMUSpec.RateHz)
			}
		})
	}
	m["ekf.predict_ns"] = predict(1)
	m["ekf.predict_decim_ns"] = predict(cfg.EKF.CovarianceDecimation)

	// Each fusion runs on a level filter at rest at the origin, fed a
	// measurement consistent with that state, so the update is accepted.
	fuse := func(update func(f *ekf.Filter, t float64)) float64 {
		f := ekf.New(cfg.EKF)
		f.Reset(ekf.State{Att: mathx.QuatIdentity()})
		return perCallNs(func(n int) {
			for i := 0; i < n; i++ {
				update(f, float64(i)*0.04)
			}
		})
	}
	m["ekf.fuse_gps_ns"] = fuse(func(f *ekf.Filter, t float64) {
		f.FuseGPS(sensors.GPSSample{T: t, Valid: true})
	})
	m["ekf.fuse_baro_ns"] = fuse(func(f *ekf.Filter, t float64) {
		f.FuseBaro(sensors.BaroSample{T: t})
	})
	m["ekf.fuse_mag_ns"] = fuse(func(f *ekf.Filter, t float64) {
		f.FuseMag(sensors.MagSample{T: t})
	})
	m["ekf.fuse_gravity_ns"] = fuse(func(f *ekf.Filter, t float64) {
		s := still
		s.T = t
		f.FuseGravity(s)
	})

	ctl := control.New(cfg.Gains, cfg.Airframe, 1/cfg.IMUSpec.RateHz)
	est := control.Estimate{Att: mathx.QuatIdentity(), Vel: mathx.V3(1, 0, 0), Pos: mathx.V3(0, 0, -20)}
	sp := control.Setpoint{Pos: mathx.V3(50, 10, -25), Yaw: 0.3, CruiseSpeed: 8, MaxClimb: 3, MaxDescend: 2}
	m["control.update_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			cmd, _ := ctl.Update(1/cfg.IMUSpec.RateHz, est, still.Gyro, sp)
			sink += cmd[0]
		}
	})

	mon := failsafe.NewMonitor(cfg.Failsafe)
	m["failsafe.update_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			ob := failsafe.Observation{T: float64(i) / 50, IMU: still, EstVelHorizMS: 5, MaxSpeedMS: 15}
			if mon.Update(ob, imus) == failsafe.PhaseActive {
				sink++
			}
		}
	})

	ms := mission.Valencia()[0]
	tracker, err := bubble.NewTracker(ms, cfg.RiskR, cfg.TrackingInterval)
	if err != nil {
		return nil, err
	}
	t := 0.0
	m["bubble.observe_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			t += cfg.TrackingInterval
			if _, ok := tracker.Observe(t, ms.Start, 8); ok {
				sink++
			}
		}
	})

	hexa := physics.DefaultParams()
	hexa.Layout = physics.HexaX
	rotors := hexa.Layout.Rotors()
	var cmd physics.Rotors
	for i := 0; i < rotors; i++ {
		cmd[i] = hexa.HoverThrustFraction()
	}
	mc := cfg.Mitigation.RotorDefaults()
	rm := mitigation.NewRotorMonitor(mc, rotors, hexa.MotorTau, 1/cfg.IMUSpec.RateHz)
	m["mitigation.rotor_observe_ns"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			if rm.Observe(cmd, cmd) {
				sink++
			}
		}
	})

	mixer := physics.NewMixer(hexa)
	var weights physics.Rotors
	for i := 1; i < rotors; i++ {
		weights[i] = 1
	}
	if _, err := mixer.ReconfiguredAllocator(weights); err != nil {
		return nil, fmt.Errorf("reconfigured allocator: %w", err)
	}
	m["physics.reconfig_us"] = perCallNs(func(n int) {
		for i := 0; i < n; i++ {
			a, _ := mixer.ReconfiguredAllocator(weights)
			sink += a.Caps()[1]
		}
	}) / 1e3
	return m, nil
}
