// Package optimize provides the derivative-free optimisers used to fit the
// forecasting models: Nelder-Mead simplex for the multi-parameter CSS/SSE
// objectives of ARIMA, exponential smoothing and TBATS, and golden-section
// search for one-dimensional problems.
package optimize

import (
	"context"
	"fmt"
	"math"
)

// Objective is a function to minimise. Implementations must tolerate any
// input and may return +Inf (or NaN, treated as +Inf) for infeasible points.
type Objective func(x []float64) float64

// NelderMeadOptions configures the simplex search.
type NelderMeadOptions struct {
	// MaxIter bounds the number of iterations; 0 means 200·dim.
	MaxIter int
	// TolX stops when the simplex diameter falls below this; 0 means 1e-8.
	TolX float64
	// TolF stops when the function spread falls below this; 0 means 1e-10.
	TolF float64
	// Step is the initial simplex edge length per dimension; 0 means 0.1
	// (or 0.00025 for coordinates that start at zero, following fminsearch).
	Step float64
	// Abort, when non-nil, is polled every abortCheckEvery objective
	// evaluations and once per iteration; returning true stops the search
	// at the current best vertex and marks the Result Aborted. This is the
	// cooperative-cancellation hook per-candidate fit deadlines ride on —
	// typically ContextAbort(ctx).
	Abort func() bool
}

// abortCheckEvery spaces out Abort polls so a cheap objective is not
// dominated by cancellation checks; a pathological shrink step evaluates
// n+1 points, so the hook still fires within one simplex operation.
const abortCheckEvery = 16

// ContextAbort adapts a context to an Abort hook (nil ctx → nil hook, the
// never-abort default).
func ContextAbort(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// AbortCause names the error behind an aborted optimisation: the ctx's
// error when it is done, context.Canceled otherwise (hook tripped for a
// reason of its own). Callers wrap it so errors.Is sees
// context.DeadlineExceeded / context.Canceled.
func AbortCause(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return context.Canceled
}

// Result reports the outcome of an optimisation.
type Result struct {
	X          []float64
	F          float64
	Iterations int
	Converged  bool
	Evals      int
	// Aborted is set when the Abort hook stopped the search early; X/F
	// then hold the best vertex seen so far and Converged is false.
	Aborted bool
}

// NelderMead minimises f starting from x0 using the Nelder-Mead simplex
// algorithm with the standard reflection/expansion/contraction/shrink
// coefficients (1, 2, 0.5, 0.5).
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) Result {
	n := len(x0)
	if n == 0 {
		panic("optimize: empty start point")
	}
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
	aborted := false
	checkAbort := func() bool {
		if !aborted && opt.Abort != nil && opt.Abort() {
			aborted = true
		}
		return aborted
	}
	eval := func(x []float64) float64 {
		evals++
		if aborted || (evals%abortCheckEvery == 0 && checkAbort()) {
			return math.Inf(1)
		}
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex. Every vertex buffer is allocated here,
	// once; the search loop below only copies into them, so thousands of
	// reflection / contraction steps allocate nothing.
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

	// Stable insertion sort (same ordering as sort.SliceStable): the
	// simplex is nearly sorted after each step, so this is both cheap and
	// closure/reflection-free.
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
	// Trial-point scratch: xr holds the reflection, xt the expansion or
	// contraction candidate compared against it.
	xr := make([]float64, n)
	xt := make([]float64, n)
	iter := 0
	converged := false
	for ; iter < maxIter && !checkAbort(); iter++ {
		// Convergence checks. The O(n²) diameter test runs only once the
		// cheap f-spread test has passed.
		fSpread := math.Abs(simplex[n].f - simplex[0].f)
		if fSpread < tolF*(1+math.Abs(simplex[0].f)) && diameterBelow(simplex, tolX) {
			converged = true
			break
		}

		// Centroid of all but the worst vertex, summed vertex by vertex so
		// the inner loop runs along one vertex's coordinates. Each
		// coordinate still adds vertices 0…n−1 in order.
		clear(centroid)
		for _, v := range simplex[:n] {
			for j, x := range v.x {
				centroid[j] += x
			}
		}
		for j := range centroid {
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

		// Reflection.
		fr := eval(mix(xr, 1))
		switch {
		case fr < simplex[0].f:
			// Expansion.
			fe := eval(mix(xt, 2))
			if fe < fr {
				accept(xt, fe)
			} else {
				accept(xr, fr)
			}
		case fr < simplex[n-1].f:
			accept(xr, fr)
		default:
			// Contraction.
			if fr < worst.f {
				fc := eval(mix(xt, 0.5)) // outside
				if fc <= fr {
					accept(xt, fc)
				} else {
					shrink(simplex, eval)
				}
			} else {
				fc := eval(mix(xt, -0.5)) // inside
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
		Aborted: aborted,
	}
}

// diameterBelow reports whether every coordinate of every vertex lies
// within tol of the best vertex's. It stops at the first distance that
// does not; a NaN distance never stops it.
func diameterBelow(simplex []vertex, tol float64) bool {
	best := simplex[0].x
	for _, v := range simplex[1:] {
		for j, x := range v.x {
			if math.Abs(x-best[j]) >= tol {
				return false
			}
		}
	}
	return true
}

// vertex is one point of the Nelder-Mead simplex with its objective value.
type vertex struct {
	x []float64
	f float64
}

func shrink(simplex []vertex, eval func([]float64) float64) {
	best := simplex[0].x
	for i := 1; i < len(simplex); i++ {
		for j := range simplex[i].x {
			simplex[i].x[j] = best[j] + 0.5*(simplex[i].x[j]-best[j])
		}
		simplex[i].f = eval(simplex[i].x)
	}
}

// GoldenSection minimises a unimodal one-dimensional function on [a, b] to
// the given absolute tolerance and returns the minimiser.
func GoldenSection(f func(float64) float64, a, b, tol float64) float64 {
	x, _ := GoldenSectionAbort(f, a, b, tol, nil)
	return x
}

// GoldenSectionAbort is GoldenSection with the cooperative-cancellation
// hook: abort (nil = never) is polled every abortCheckEvery evaluations,
// and a trip stops the search at the current bracket midpoint, reported
// through the aborted return.
func GoldenSectionAbort(f func(float64) float64, a, b, tol float64, abort func() bool) (x float64, aborted bool) {
	if a > b {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-8
	}
	const invPhi = 0.6180339887498949
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	evals := 2
	for b-a > tol {
		evals++
		if abort != nil && evals%abortCheckEvery == 0 && abort() {
			return (a + b) / 2, true
		}
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2, false
}

// Gradient estimates ∇f at x by central differences with step h
// (h <= 0 selects a scale-aware default).
func Gradient(f Objective, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	work := append([]float64(nil), x...)
	for i := range x {
		hi := h
		if hi <= 0 {
			hi = 1e-6 * math.Max(1, math.Abs(x[i]))
		}
		orig := work[i]
		work[i] = orig + hi
		fp := f(work)
		work[i] = orig - hi
		fm := f(work)
		work[i] = orig
		g[i] = (fp - fm) / (2 * hi)
	}
	return g
}

// MultiStart runs NelderMead from each start point and returns the best
// result. It panics if no start points are given.
func MultiStart(f Objective, starts [][]float64, opt NelderMeadOptions) Result {
	if len(starts) == 0 {
		panic("optimize: MultiStart needs at least one start point")
	}
	best := Result{F: math.Inf(1)}
	for i, s := range starts {
		r := NelderMead(f, s, opt)
		if i == 0 || r.F < best.F {
			best = r
		}
		if r.Aborted {
			// Cancellation outranks restarts: report the best so far.
			best.Aborted = true
			break
		}
	}
	return best
}

// String implements fmt.Stringer for diagnostics.
func (r Result) String() string {
	return fmt.Sprintf("f=%.6g after %d iters (converged=%v, evals=%d)", r.F, r.Iterations, r.Converged, r.Evals)
}
