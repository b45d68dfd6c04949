package linalg

import "math"

// QR holds a Householder QR factorisation of an m×n matrix with m >= n.
// The factorisation is stored compactly: R in the upper triangle of a copy
// of A, and the Householder vectors below the diagonal plus the tau slice.
// The zero QR is ready for Factorize.
type QR struct {
	qr   Matrix
	tau  []float64
	rows int
	cols int
}

// NewQR computes the Householder QR factorisation of a.
// It panics if a has fewer rows than columns.
func NewQR(a *Matrix) *QR {
	f := new(QR)
	f.Factorize(a)
	return f
}

// Factorize recomputes f as the Householder QR factorisation of a, reusing
// f's storage when it is large enough, so a run of regressions through one
// QR allocates only for a design larger than every earlier one.
// It panics if a has fewer rows than columns.
//
// The loops index the row-major storage directly, but every update is
// the At/Set/Add formulation's expression, in the same order, so the
// factors are bit-identical to it (TestQRMatchesAtOracle keeps it as the
// reference).
func (f *QR) Factorize(a *Matrix) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		panic("linalg: QR requires rows >= cols")
	}
	f.qr.Reset(m, n)
	d := f.qr.data
	copy(d, a.data)
	if cap(f.tau) < n {
		f.tau = make([]float64, n)
	}
	tau := f.tau[:n]
	for k := 0; k < n; k++ {
		// Compute the Householder reflection for column k.
		colNorm := 0.0
		for i := k; i < m; i++ {
			colNorm = math.Hypot(colNorm, d[i*n+k])
		}
		if colNorm == 0 {
			tau[k] = 0
			continue
		}
		alpha := d[k*n+k]
		if alpha > 0 {
			colNorm = -colNorm
		}
		// v = x - colNorm*e1, normalised so v[0] = 1.
		v0 := alpha - colNorm
		d[k*n+k] = colNorm
		for i := k + 1; i < m; i++ {
			d[i*n+k] /= v0
		}
		tau[k] = -v0 / colNorm
		// Apply the reflection to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := d[k*n+j]
			for i := k + 1; i < m; i++ {
				s += d[i*n+k] * d[i*n+j]
			}
			s *= tau[k]
			d[k*n+j] += -s
			for i := k + 1; i < m; i++ {
				d[i*n+j] += -s * d[i*n+k]
			}
		}
	}
	f.tau, f.rows, f.cols = tau, m, n
}

// applyQt applies Qᵀ to a vector b of length rows, in place.
func (f *QR) applyQt(b []float64) {
	d, n := f.qr.data, f.cols
	for k := 0; k < f.cols; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < f.rows; i++ {
			s += d[i*n+k] * b[i]
		}
		s *= f.tau[k]
		b[k] -= s
		for i := k + 1; i < f.rows; i++ {
			b[i] -= s * d[i*n+k]
		}
	}
}

// Solve returns x minimising ‖Ax − b‖₂ for the factorised A.
// It returns ErrSingular if R has a (numerically) zero diagonal element.
func (f *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.cols)
	if err := f.SolveInto(x, make([]float64, f.rows), b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve writing the solution into x (length Cols) and using
// work (length Rows) as scratch; b is left untouched.
func (f *QR) SolveInto(x, work, b []float64) error {
	if len(b) != f.rows || len(work) != f.rows || len(x) != f.cols {
		panic("linalg: QR.Solve length mismatch")
	}
	copy(work, b)
	f.applyQt(work)
	const tiny = 1e-12
	// Scale tolerance by the largest diagonal magnitude for robustness.
	maxDiag := 0.0
	for k := 0; k < f.cols; k++ {
		if d := math.Abs(f.qr.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := tiny * math.Max(1, maxDiag)
	for k := f.cols - 1; k >= 0; k-- {
		s := work[k]
		for j := k + 1; j < f.cols; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		d := f.qr.At(k, k)
		if math.Abs(d) <= tol {
			return ErrSingular
		}
		x[k] = s / d
	}
	return nil
}

// RInverseInto writes R⁻¹ for the n×n upper-triangular factor into inv,
// which it resets to n×n; (XᵀX)⁻¹ = R⁻¹R⁻ᵀ gives regression standard
// errors. It returns ErrSingular if R is singular.
func (f *QR) RInverseInto(inv *Matrix) error {
	n := f.cols
	inv.Reset(n, n)
	const tiny = 1e-12
	for j := 0; j < n; j++ {
		// Solve R x = e_j by back substitution.
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
			if math.Abs(d) <= tiny {
				return ErrSingular
			}
			inv.Set(k, j, s/d)
		}
	}
	return nil
}

// SolveLeastSquares solves min ‖Ax − b‖₂ in one call.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewQR(a).Solve(b)
}
