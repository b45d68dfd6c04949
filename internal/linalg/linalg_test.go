package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatalf("Add failed")
	}
	c := m.Clone()
	c.Set(1, 2, 0)
	if m.At(1, 2) != 6 {
		t.Fatalf("Clone shares storage with the original")
	}
	c.Reset(1, 2)
	if c.Rows() != 1 || c.Cols() != 2 || c.At(0, 0) != 0 || c.At(0, 1) != 0 {
		t.Fatalf("Reset(1,2) did not give a zeroed 1x2 matrix")
	}
}

func TestMatrixPanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(0, 3) },
		func() { NewMatrixFrom(2, 2, []float64{1}) },
		func() { NewMatrix(2, 2).At(2, 0) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { new(Matrix).Reset(0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 0, 2, -1, 3, 1})
	v := []float64{3, 2, 1}
	got := a.MulVec(v)
	want := []float64{5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestQRSolveExact(t *testing.T) {
	// 3x3 well-conditioned system with a known solution.
	a := NewMatrixFrom(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined: fit y = 2 + 3x exactly on noiseless data.
	n := 20
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	beta, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 2, 1e-9) || !almostEq(beta[1], 3, 1e-9) {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestQRSingular(t *testing.T) {
	// Two identical columns — rank deficient.
	n := 10
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, float64(i))
		b[i] = float64(i)
	}
	if _, err := SolveLeastSquares(a, b); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient system")
	}
}

func TestQRRandomResidualOrthogonality(t *testing.T) {
	// Least-squares residuals must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	m, n := 30, 4
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, m)
	fit := a.MulVec(x)
	for i := range res {
		res[i] = b[i] - fit[i]
	}
	for j := 0; j < n; j++ {
		var d float64
		for i := 0; i < m; i++ {
			d += a.At(i, j) * res[i]
		}
		if math.Abs(d) > 1e-8 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, d)
		}
	}
}

func TestQRRInverse(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		2, 1, 0,
		0, 3, 1,
		0, 0, 4,
	})
	// Use the QR of an upper-triangular (already R-like) full-rank matrix.
	qr := NewQR(a)
	var inv Matrix
	if err := qr.RInverseInto(&inv); err != nil {
		t.Fatal(err)
	}
	// Verify R * R^{-1} = I using the upper triangle R stored in the
	// factorisation.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var p float64
			for k := i; k < 3; k++ {
				p += qr.qr.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p, want, 1e-9) {
				t.Fatalf("R*Rinv != I at (%d,%d): %v", i, j, p)
			}
		}
	}
}

// Property: QR solve of A·x for random SPD-ish systems recovers x.
func TestQRSolveRecoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance for conditioning
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		x, err := NewQR(a).Solve(b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(x[i], want[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQRSolve50x5(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(50, 5)
	for i := 0; i < 50; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	y := make([]float64, 50)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLeastSquares(a, y); err != nil {
			b.Fatal(err)
		}
	}
}
