// Package microbench is the one table of hot-path micro-benchmarks. The
// repository's `go test -bench Micro` runs every entry as a sub-benchmark,
// and cmd/bench runs the same entries through testing.Benchmark to emit
// BENCH_<date>.json, so each micro is defined exactly once.
package microbench

import (
	"testing"
	"time"

	"uavres/internal/bubble"
	"uavres/internal/control"
	"uavres/internal/core"
	"uavres/internal/ekf"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sensors"
	"uavres/internal/sim"
	"uavres/internal/telemetry"
)

// Micro is one named micro-benchmark. Names are the keys BENCH reports
// are compared by, so a rename drops the micro from the regression gate.
type Micro struct {
	Name string
	Run  func(b *testing.B)
}

// Table lists every micro-benchmark in report order.
var Table = []Micro{
	// EKFPredict is pinned to the exact per-step covariance path (k=1) so
	// the series stays comparable with reports predating decimation;
	// EKFPredictDecimated measures the default flight configuration.
	{"EKFPredict", func(b *testing.B) {
		cfg := ekf.DefaultConfig()
		cfg.CovarianceDecimation = 1
		f := ekf.New(cfg)
		s := sensors.IMUSample{Accel: mathx.V3(0, 0, -physics.Gravity)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.T = float64(i) * 0.004
			f.Predict(s, 0.004)
		}
	}},
	// Three cheap transition compositions amortized against one heavier
	// covariance flush (default k=4).
	{"EKFPredictDecimated", func(b *testing.B) {
		f := ekf.New(ekf.DefaultConfig())
		s := sensors.IMUSample{Accel: mathx.V3(0, 0, -physics.Gravity)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.T = float64(i) * 0.004
			f.Predict(s, 0.004)
		}
	}},
	{"Mat15PropagateSym", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		_ = ekf.PropagateSymLoop(b.N)
	}},
	// One GPS fusion (6 scalar updates).
	{"EKFFuseGPS", func(b *testing.B) {
		f := ekf.New(ekf.DefaultConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.FuseGPS(sensors.GPSSample{T: float64(i) * 0.2, Valid: true})
		}
	}},
	// One rigid-body integration step.
	{"PhysicsStep", func(b *testing.B) {
		body, err := physics.NewBody(physics.DefaultParams(), physics.CalmWind())
		if err != nil {
			b.Fatal(err)
		}
		hover := physics.DefaultParams().HoverThrustFraction()
		body.SetMotorCommands(physics.Rotors{hover, hover, hover, hover})
		st := body.State()
		st.Pos.Z = -20
		body.SetState(st)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body.Step(0.002)
		}
	}},
	// Control allocation through the quad mixer.
	{"MixerAllocate", func(b *testing.B) {
		m := physics.NewMixer(physics.DefaultParams())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.Allocate(14.7, mathx.V3(0.1, -0.1, 0.01))
		}
	}},
	// The 250 Hz sensing step: sampling all three redundant IMUs plus the
	// cross-unit outlier vote.
	{"IMUSampleVote", func(b *testing.B) {
		imus, err := sensors.NewRedundantIMUs(3, sensors.DefaultIMUSpec(), mathx.NewRand(3))
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]sensors.IMUSample, 0, 3)
		accel := mathx.V3(0, 0, -physics.Gravity)
		gyro := mathx.V3(0.01, -0.02, 0.005)
		cfg := sim.DefaultConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			all := imus.SampleAllInto(buf, float64(i)*0.004, accel, gyro)
			_ = sensors.VoteOutlier(all, imus.Primary(), cfg.VoteAccelTol, cfg.VoteGyroTol)
		}
	}},
	// Fault-corruption overhead per IMU sample inside the fault window.
	{"InjectorApply", func(b *testing.B) {
		j, err := faultinject.New(faultinject.Injection{
			Primitive: faultinject.Random, Target: faultinject.TargetIMU,
			Start: 0, Duration: time.Hour, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := sensors.IMUSample{T: 1, Accel: mathx.V3(0, 0, -9.8)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = j.Apply(s)
		}
	}},
	// One full cascade pass (position, velocity, attitude, and rate loops
	// down to rotor commands).
	{"ControlUpdate", func(b *testing.B) {
		ctl := control.New(control.DefaultGains(), physics.DefaultParams(), 0.004)
		est := control.Estimate{Att: mathx.QuatIdentity(), Vel: mathx.V3(1, 0, 0), Pos: mathx.V3(0, 0, -20)}
		sp := control.Setpoint{Pos: mathx.V3(50, 10, -25), Yaw: 0.3, CruiseSpeed: 8, MaxClimb: 3, MaxDescend: 2}
		gyro := mathx.V3(0.01, -0.02, 0.005)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ctl.Update(0.004, est, gyro, sp)
		}
	}},
	// The mitigation pipeline's per-sample overhead: it must be deployable
	// at the 250 Hz IMU rate.
	{"Mitigation", func(b *testing.B) {
		p, err := mitigation.NewPipeline(mitigation.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		s := sensors.IMUSample{Accel: mathx.V3(0.01, -0.02, -9.81), Gyro: mathx.V3(0.02, 0, 0.01)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Accel.X += 1e-9 // defeat the stuck guard: nominal streams are noisy
			_, _ = p.Apply(s)
		}
	}},
	// One tracker observation (nearest point on route + dynamic outer
	// bubble).
	{"BubbleObserve", func(b *testing.B) {
		tr, err := bubble.NewTracker(mission.Valencia()[4], 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		p := mathx.V3(2100, 900, -15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Observe(float64(i), p, 3.3)
		}
	}},
	// The two normal-sampler policies behind every sensor/wind deviate:
	// Marsaglia polar (the bit-compatible default, two deviates per
	// acceptance) vs the 128-layer ziggurat.
	{"NormFloat64Polar", func(b *testing.B) {
		r := mathx.NewRandPolicy(1, mathx.NormPolar)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.NormFloat64()
		}
	}},
	{"NormFloat64Ziggurat", func(b *testing.B) {
		r := mathx.NewRandPolicy(1, mathx.NormZiggurat)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = r.NormFloat64()
		}
	}},
	// Ten full simulated vehicle-seconds (physics + sensing + EKF +
	// control + monitoring) per iteration: the cost unit behind the
	// campaign's wall-clock time.
	{"SimTenSeconds", func(b *testing.B) {
		cfg := sim.DefaultConfig()
		cfg.MaxSimTime = 10 // cannot finish in 10 s: fixed work per iter
		m := mission.Valencia()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, m, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// Telemetry position-frame encode + decode.
	{"CodecRoundTrip", func(b *testing.B) {
		pos := telemetry.Position{TimeSec: 1, X: 2, Y: 3, Z: -15, VX: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := telemetry.EncodePosition(uint8(i), 1, pos)
			if err != nil {
				b.Fatal(err)
			}
			raw, err := f.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := telemetry.ReadFrameBytes(raw); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// The observability hot paths below must all stay 0 allocs/op. One
	// resolved-counter increment is what the flight-data recorder adds to
	// every 500 Hz physics step.
	{"ObsCounterInc", func(b *testing.B) {
		c := obs.NewRegistry().Counter("steps")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	}},
	// Bucket scan + two atomic adds + CAS sum.
	{"ObsHistogramObserve", func(b *testing.B) {
		h := obs.NewRegistry().Histogram("lat", []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%37) * 0.1)
		}
	}},
	// One trace-ring append, including steady-state eviction once the
	// ring is full.
	{"ObsTraceAppend", func(b *testing.B) {
		tb := obs.NewTraceBuffer(obs.DefaultTraceCapacity)
		e := obs.Event{Kind: obs.EventPhase, Detail: "2"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.T = float64(i)
			tb.Append(e)
		}
	}},
	// One campaign span open/close pair: the per-case tracing cost every
	// worker pays when a trace is recorded.
	{"ObsSpanStartEnd", func(b *testing.B) {
		tr := obs.NewTracer(obs.Stopped(), 1<<16)
		root := tr.Start("campaign", 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := tr.Start("case", root, obs.StrAttr("id", "m01-gold"))
			tr.End(id)
			if tr.Len() >= 1<<16 {
				// Recycle within preallocated capacity so the loop never
				// measures slice growth, only the Start/End hot path.
				tr.Reset()
				root = tr.Start("campaign", 0)
			}
		}
	}},
	// One live-status render: the cost each /status request (and SSE
	// tick) puts on a running campaign.
	{"CoreStatusSnapshot", func(b *testing.B) {
		reg := obs.NewRegistry()
		src := core.NewStatusSource(reg, core.StatusConfig{Total: 850, Workers: 8})
		reg.Counter("campaign_cases_total").Add(425)
		reg.Histogram("campaign_case_seconds", nil).Observe(0.2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := src.Snapshot(); st.CasesTotal != 850 {
				b.Fatal("bad snapshot")
			}
		}
	}},
}
