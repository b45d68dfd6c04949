package optimize

import (
	"math"
	"testing"
)

// referenceNelderMead is NelderMead as it was before its convergence test
// and centroid were reorganised: every iteration computes the full simplex
// diameter, and the centroid is summed coordinate by coordinate. It is
// kept as the oracle the search must reproduce bit for bit. It leaves out
// the Abort hook, which the oracle cases do not set.
func referenceNelderMead(f Objective, x0 []float64, opt NelderMeadOptions) Result {
	n := len(x0)
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * n
	}
	tolX := opt.TolX
	if tolX <= 0 {
		tolX = 1e-8
	}
	tolF := opt.TolF
	if tolF <= 0 {
		tolF = 1e-10
	}
	step := opt.Step
	if step <= 0 {
		step = 0.1
	}

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	simplex[0] = vertex{x: base, f: eval(base)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		if x[i] != 0 {
			x[i] += step * math.Abs(x[i])
		} else {
			x[i] = step * 0.0025
		}
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}
	sortSimplex := func() {
		for i := 1; i < len(simplex); i++ {
			v := simplex[i]
			j := i - 1
			for j >= 0 && v.f < simplex[j].f {
				simplex[j+1] = simplex[j]
				j--
			}
			simplex[j+1] = v
		}
	}
	sortSimplex()

	centroid := make([]float64, n)
	xr := make([]float64, n)
	xt := make([]float64, n)
	iter := 0
	converged := false
	for ; iter < maxIter; iter++ {
		fSpread := math.Abs(simplex[n].f - simplex[0].f)
		var xDiam float64
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				d := math.Abs(simplex[i].x[j] - simplex[0].x[j])
				if d > xDiam {
					xDiam = d
				}
			}
		}
		if fSpread < tolF*(1+math.Abs(simplex[0].f)) && xDiam < tolX {
			converged = true
			break
		}

		for j := 0; j < n; j++ {
			centroid[j] = 0
			for i := 0; i < n; i++ {
				centroid[j] += simplex[i].x[j]
			}
			centroid[j] /= float64(n)
		}
		worst := simplex[n]

		mix := func(dst []float64, alpha float64) []float64 {
			for j := 0; j < n; j++ {
				dst[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
			}
			return dst
		}
		accept := func(x []float64, f float64) {
			copy(simplex[n].x, x)
			simplex[n].f = f
		}

		fr := eval(mix(xr, 1))
		switch {
		case fr < simplex[0].f:
			fe := eval(mix(xt, 2))
			if fe < fr {
				accept(xt, fe)
			} else {
				accept(xr, fr)
			}
		case fr < simplex[n-1].f:
			accept(xr, fr)
		default:
			if fr < worst.f {
				fc := eval(mix(xt, 0.5))
				if fc <= fr {
					accept(xt, fc)
				} else {
					shrink(simplex, eval)
				}
			} else {
				fc := eval(mix(xt, -0.5))
				if fc < worst.f {
					accept(xt, fc)
				} else {
					shrink(simplex, eval)
				}
			}
		}
		sortSimplex()
	}
	return Result{
		X: simplex[0].x, F: simplex[0].f,
		Iterations: iter, Converged: converged, Evals: evals,
	}
}

// referenceNelderMeadWarm is NelderMeadWarm over referenceNelderMead.
func referenceNelderMeadWarm(f Objective, x0, warm []float64, opt NelderMeadOptions) (Result, bool) {
	if !WarmUsable(warm, x0) {
		return referenceNelderMead(f, x0, opt), false
	}
	wopt := opt
	if wopt.Step <= 0 {
		wopt.Step = WarmStep
	}
	wres := referenceNelderMead(f, warm, wopt)
	f0 := f(x0)
	if math.IsNaN(f0) {
		f0 = math.Inf(1)
	}
	wres.Evals++
	if !math.IsNaN(wres.F) && !math.IsInf(wres.F, 0) && wres.F <= f0 {
		return wres, true
	}
	cres := referenceNelderMead(f, x0, opt)
	cres.Evals += wres.Evals
	if wres.F < cres.F {
		wres.Evals = cres.Evals
		return wres, false
	}
	return cres, false
}

// sameResult reports whether two results agree bit for bit in X and F and
// exactly in Iterations, Evals and Converged.
func sameResult(a, b Result) bool {
	if len(a.X) != len(b.X) || math.Float64bits(a.F) != math.Float64bits(b.F) ||
		a.Iterations != b.Iterations || a.Evals != b.Evals || a.Converged != b.Converged {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestNelderMeadMatchesReferenceOracle requires the simplex search to
// reproduce referenceNelderMead exactly, cold and warm-started, on smooth,
// high-dimensional, infeasible-region and NaN-returning objectives.
func TestNelderMeadMatchesReferenceOracle(t *testing.T) {
	rosenbrock := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	// A coupled 26-dimensional quadratic: the parameter count of the
	// largest seasonal fits the engine runs.
	quad26 := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.1*float64(i%7) + 0.3
			s += float64(i+1) * d * d
			if i > 0 {
				s += 0.5 * d * (x[i-1] - 0.2)
			}
		}
		return s
	}
	start26 := make([]float64, 26)
	for i := range start26 {
		if i%4 != 0 { // every fourth coordinate starts at zero
			start26[i] = 0.05 * float64(i)
		}
	}
	infRegion := func(x []float64) float64 {
		if x[0] < 0 || x[1] > 1 {
			return math.Inf(1)
		}
		return (x[0]-2)*(x[0]-2) + (x[1]+1)*(x[1]+1) + x[2]*x[2]
	}
	nanRegion := func(x []float64) float64 {
		if x[0]+x[1] > 4 {
			return math.NaN()
		}
		return x[0]*x[0] + 3*x[1]*x[1] - x[0]*x[1]
	}
	// A flat objective converges by shrinking; the NaN coordinate makes
	// every distance in its column NaN, which the diameter test skips.
	flat := func([]float64) float64 { return 1 }

	cases := []struct {
		name string
		f    Objective
		x0   []float64
		warm []float64 // nil: cold search
		opt  NelderMeadOptions
	}{
		{name: "rosenbrock", f: rosenbrock, x0: []float64{-1.2, 1}, opt: NelderMeadOptions{MaxIter: 5000}},
		{name: "quadratic-26", f: quad26, x0: start26, opt: NelderMeadOptions{MaxIter: 60000}},
		{name: "quadratic-26-capped", f: quad26, x0: start26, opt: NelderMeadOptions{MaxIter: 300}},
		{name: "inf-region", f: infRegion, x0: []float64{5, 0.5, 1}},
		{name: "nan-region", f: nanRegion, x0: []float64{3, 0.9}},
		{name: "flat-nan-coordinate", f: flat, x0: []float64{1, math.NaN(), 0}},
		{name: "warm-wins", f: rosenbrock, x0: []float64{-1.2, 1}, warm: []float64{0.9, 0.8}, opt: NelderMeadOptions{MaxIter: 5000}},
		{name: "warm-falls-back", f: infRegion, x0: []float64{5, 0.5, 1}, warm: []float64{-1, 0.5, 1}},
		{name: "warm-26", f: quad26, x0: start26, warm: append(start26[1:26:26], 0.7)},
	}
	for _, tc := range cases {
		var got, want Result
		if tc.warm == nil {
			got, want = NelderMead(tc.f, tc.x0, tc.opt), referenceNelderMead(tc.f, tc.x0, tc.opt)
		} else {
			var gotOK, wantOK bool
			got, gotOK = NelderMeadWarm(tc.f, tc.x0, tc.warm, tc.opt)
			want, wantOK = referenceNelderMeadWarm(tc.f, tc.x0, tc.warm, tc.opt)
			if gotOK != wantOK {
				t.Errorf("%s: warm reported %v, oracle %v", tc.name, gotOK, wantOK)
			}
		}
		if !sameResult(got, want) {
			t.Errorf("%s: got %v X=%v, oracle %v X=%v", tc.name, got, got.X, want, want.X)
		}
	}
}
