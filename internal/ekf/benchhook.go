package ekf

import "uavres/internal/mathx"

// PropagateSymLoop runs the symmetric covariance propagation kernel
// (P ← F P Fᵀ alone, with representative step blocks) n times and returns
// the covariance trace so the work cannot be elided. It exists for the
// micro-benchmark table (internal/microbench), which cannot reach the
// unexported kernel; flight code never calls it.
func PropagateSymLoop(n int) float64 {
	f := New(DefaultConfig())
	const dt = 0.004
	att := mathx.QuatIdentity().Integrate(mathx.V3(0.3, 0.2, 0.1), 0.5)
	rot := att.RotationMatrix()
	wSkew := mathx.Skew(mathx.V3(0.05, -0.03, 0.02))
	raSkew := rot.Mul(mathx.Skew(mathx.V3(0.4, -0.2, -9.6)))
	var a, b, c [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a[i][j] = -wSkew.M[i][j] * dt
			b[i][j] = -raSkew.M[i][j] * dt
			c[i][j] = -rot.M[i][j] * dt
		}
		a[i][i] += 1
	}
	for i := 0; i < n; i++ {
		f.p.propagate(&a, &b, &c, dt)
	}
	tr := 0.0
	for i := 0; i < dim; i++ {
		tr += f.p[i][i]
	}
	return tr
}
