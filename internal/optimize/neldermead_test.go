package optimize

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	r := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(r.X[0]-3) > 1e-5 || math.Abs(r.X[1]+1) > 1e-5 {
		t.Fatalf("minimum at %v, want [3 -1]", r.X)
	}
	if !r.Converged {
		t.Fatal("should converge on a quadratic")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	r := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if math.Abs(r.X[0]-1) > 1e-3 || math.Abs(r.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimum at %v, want [1 1] (f=%v)", r.X, r.F)
	}
}

func TestNelderMeadHandlesInfRegions(t *testing.T) {
	// Objective is +Inf for x < 0 — the optimiser must stay feasible.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	r := NelderMead(f, []float64{5}, NelderMeadOptions{})
	if math.Abs(r.X[0]-2) > 1e-4 {
		t.Fatalf("minimum at %v, want 2", r.X[0])
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] > 10 {
			return math.NaN()
		}
		return x[0] * x[0]
	}
	r := NelderMead(f, []float64{5}, NelderMeadOptions{})
	if math.Abs(r.X[0]) > 1e-4 {
		t.Fatalf("minimum at %v, want 0", r.X[0])
	}
}

func TestNelderMeadZeroStart(t *testing.T) {
	// Starting exactly at zero exercises the fminsearch zero-step rule.
	f := func(x []float64) float64 { return (x[0] - 0.001) * (x[0] - 0.001) }
	r := NelderMead(f, []float64{0}, NelderMeadOptions{})
	if math.Abs(r.X[0]-0.001) > 1e-6 {
		t.Fatalf("minimum at %v, want 0.001", r.X[0])
	}
}

func TestNelderMeadMaxIterRespected(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return math.Sin(x[0]) + x[0]*x[0]*0.001
	}
	r := NelderMead(f, []float64{100}, NelderMeadOptions{MaxIter: 5})
	if r.Iterations > 5 {
		t.Fatalf("ran %d iterations, cap was 5", r.Iterations)
	}
	_ = calls
}

func TestNelderMeadEmptyStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NelderMead(func(x []float64) float64 { return 0 }, nil, NelderMeadOptions{})
}

func BenchmarkNelderMeadRosenbrock(b *testing.B) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		c := x[1] - x[0]*x[0]
		return a*a + 100*c*c
	}
	for i := 0; i < b.N; i++ {
		NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 2000})
	}
}
