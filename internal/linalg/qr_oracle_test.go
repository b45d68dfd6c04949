package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// atQR is the reference Householder QR written through the bounds-checked
// At/Set/Add accessors. The raw-slice factorisation must match it bit for
// bit, and so must Solve and RInverseInto built on top of it.
type atQR struct {
	qr   *Matrix
	tau  []float64
	rows int
	cols int
}

func newAtQR(a *Matrix) *atQR {
	m, n := a.Rows(), a.Cols()
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		colNorm := 0.0
		for i := k; i < m; i++ {
			colNorm = math.Hypot(colNorm, qr.At(i, k))
		}
		if colNorm == 0 {
			tau[k] = 0
			continue
		}
		alpha := qr.At(k, k)
		if alpha > 0 {
			colNorm = -colNorm
		}
		v0 := alpha - colNorm
		qr.Set(k, k, colNorm)
		for i := k + 1; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/v0)
		}
		tau[k] = -v0 / colNorm
		for j := k + 1; j < n; j++ {
			s := qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s *= tau[k]
			qr.Add(k, j, -s)
			for i := k + 1; i < m; i++ {
				qr.Add(i, j, -s*qr.At(i, k))
			}
		}
	}
	return &atQR{qr: qr, tau: tau, rows: m, cols: n}
}

func (f *atQR) solve(b []float64) ([]float64, error) {
	work := append([]float64(nil), b...)
	for k := 0; k < f.cols; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := work[k]
		for i := k + 1; i < f.rows; i++ {
			s += f.qr.At(i, k) * work[i]
		}
		s *= f.tau[k]
		work[k] -= s
		for i := k + 1; i < f.rows; i++ {
			work[i] -= s * f.qr.At(i, k)
		}
	}
	x := make([]float64, f.cols)
	maxDiag := 0.0
	for k := 0; k < f.cols; k++ {
		if d := math.Abs(f.qr.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * math.Max(1, maxDiag)
	for k := f.cols - 1; k >= 0; k-- {
		s := work[k]
		for j := k + 1; j < f.cols; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		d := f.qr.At(k, k)
		if math.Abs(d) <= tol {
			return nil, ErrSingular
		}
		x[k] = s / d
	}
	return x, nil
}

func (f *atQR) rInverse() (*Matrix, error) {
	n := f.cols
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for k := n - 1; k >= 0; k-- {
			var rhs float64
			if k == j {
				rhs = 1
			}
			s := rhs
			for i := k + 1; i < n; i++ {
				s -= f.qr.At(k, i) * inv.At(i, j)
			}
			d := f.qr.At(k, k)
			if math.Abs(d) <= 1e-12 {
				return nil, ErrSingular
			}
			inv.Set(k, j, s/d)
		}
	}
	return inv, nil
}

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oracleMatrix draws a random rows×cols design; shape 1 zeroes a column
// (the colNorm == 0 branch) and shape 2 makes one column a multiple of
// another (a rank-deficient design).
func oracleMatrix(rng *rand.Rand, rows, cols, shape int) *Matrix {
	a := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(5)-2)))
		}
	}
	switch {
	case shape == 1:
		j := rng.Intn(cols)
		for i := 0; i < rows; i++ {
			a.Set(i, j, 0)
		}
	case shape == 2 && cols > 1:
		src, dst := rng.Intn(cols), rng.Intn(cols)
		if src == dst {
			dst = (src + 1) % cols
		}
		for i := 0; i < rows; i++ {
			a.Set(i, dst, 3*a.At(i, src))
		}
	}
	return a
}

// TestQRMatchesAtOracle requires NewQR, Factorize on a reused QR, Solve
// and RInverseInto to reproduce the At-based reference exactly, over random
// tall matrices, zero columns and rank-deficient designs.
func TestQRMatchesAtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var reused QR
	singular := 0
	for trial := 0; trial < 2000; trial++ {
		cols := 1 + rng.Intn(8)
		rows := cols + rng.Intn(40)
		shape := rng.Intn(3)
		a := oracleMatrix(rng, rows, cols, shape)
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := newAtQR(a)
		wantX, wantErr := want.solve(b)
		wantInv, wantInvErr := want.rInverse()
		if wantErr != nil {
			singular++
		}

		reused.Factorize(a)
		for name, got := range map[string]*QR{"NewQR": NewQR(a), "Factorize": &reused} {
			if !sameBitsSlice(got.qr.data, want.qr.data) || !sameBitsSlice(got.tau, want.tau) {
				t.Fatalf("trial %d (%s, %dx%d, shape %d): factor differs from the At reference", trial, name, rows, cols, shape)
			}
			x, err := got.Solve(b)
			if err != wantErr || !sameBitsSlice(x, wantX) {
				t.Fatalf("trial %d (%s): Solve = %v, %v; reference %v, %v", trial, name, x, err, wantX, wantErr)
			}
			var inv Matrix
			err = got.RInverseInto(&inv)
			if err != wantInvErr {
				t.Fatalf("trial %d (%s): RInverseInto error %v, reference %v", trial, name, err, wantInvErr)
			}
			if err == nil && !sameBitsSlice(inv.data, wantInv.data) {
				t.Fatalf("trial %d (%s): RInverseInto differs from the reference", trial, name)
			}
		}
	}
	if singular == 0 {
		t.Fatal("no draw reached the singular path")
	}
}
