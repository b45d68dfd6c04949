package stats

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// OLSResult holds a fitted ordinary-least-squares regression with the
// inference quantities the stationarity tests need.
type OLSResult struct {
	Coef      []float64 // estimated coefficients, one per column of X
	StdErr    []float64 // coefficient standard errors
	TStat     []float64 // coefficient t statistics
	Residuals []float64
	Fitted    []float64
	Sigma2    float64 // residual variance (SSE / (n − k))
	RSquared  float64
	N         int
	K         int // number of regressors
}

// OLS fits y = X·β + ε by least squares. X is an n×k design matrix
// (include a ones column yourself if an intercept is wanted).
// It returns an error when the design is rank deficient or n <= k.
func OLS(x *linalg.Matrix, y []float64) (*OLSResult, error) {
	return new(olsScratch).fit(x, y)
}

// olsScratch holds the storage of an OLS fit. Fits through one scratch
// reuse it, so a run of regressions (the ADF lag search) allocates only
// for a design larger than every earlier one. A fit's result aliases the
// scratch and stays valid until the next fit.
type olsScratch struct {
	qr   linalg.QR
	rinv linalg.Matrix
	work []float64
	res  OLSResult
}

// resize returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are stale: callers overwrite them.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// reserveRows sizes the row-length buffers for designs of up to rows rows.
func (s *olsScratch) reserveRows(rows int) {
	s.work = resize(s.work, rows)
	s.res.Fitted = resize(s.res.Fitted, rows)
	s.res.Residuals = resize(s.res.Residuals, rows)
}

func (s *olsScratch) fit(x *linalg.Matrix, y []float64) (*OLSResult, error) {
	n, k := x.Rows(), x.Cols()
	if len(y) != n {
		panic("stats: OLS dimension mismatch")
	}
	if n <= k {
		return nil, fmt.Errorf("stats: OLS needs n > k (n=%d, k=%d)", n, k)
	}
	s.qr.Factorize(x)
	s.work = resize(s.work, n)
	r := &s.res
	r.N, r.K = n, k
	r.Coef = resize(r.Coef, k)
	beta := r.Coef
	if err := s.qr.SolveInto(beta, s.work, y); err != nil {
		return nil, fmt.Errorf("stats: OLS design is rank deficient: %w", err)
	}
	r.Fitted = resize(r.Fitted, n)
	x.MulVecInto(r.Fitted, beta)
	r.Residuals = resize(r.Residuals, n)
	resid := r.Residuals
	var sse float64
	for i := range resid {
		resid[i] = y[i] - r.Fitted[i]
		sse += resid[i] * resid[i]
	}
	r.Sigma2 = sse / float64(n-k)

	// (XᵀX)⁻¹ = R⁻¹·R⁻ᵀ from the QR factor.
	if err := s.qr.RInverseInto(&s.rinv); err != nil {
		return nil, fmt.Errorf("stats: OLS R factor singular: %w", err)
	}
	r.StdErr = resize(r.StdErr, k)
	r.TStat = resize(r.TStat, k)
	for i := 0; i < k; i++ {
		var v float64
		for j := 0; j < k; j++ {
			v += s.rinv.At(i, j) * s.rinv.At(i, j)
		}
		r.StdErr[i] = math.Sqrt(r.Sigma2 * v)
		if r.StdErr[i] > 0 {
			r.TStat[i] = beta[i] / r.StdErr[i]
		} else {
			r.TStat[i] = math.NaN()
		}
	}

	my := Mean(y)
	var tss float64
	for _, v := range y {
		d := v - my
		tss += d * d
	}
	r.RSquared = math.NaN()
	if tss > 0 {
		r.RSquared = 1 - sse/tss
	}
	return r, nil
}

// Ones returns a ones vector of length n, the intercept column for
// DesignMatrix when no other regressors are present.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// DesignMatrix assembles a design matrix from columns. All columns must
// have equal length. intercept prepends a ones column.
func DesignMatrix(intercept bool, cols ...[]float64) *linalg.Matrix {
	if len(cols) == 0 && !intercept {
		panic("stats: empty design")
	}
	var n int
	if len(cols) > 0 {
		n = len(cols[0])
		for _, c := range cols {
			if len(c) != n {
				panic("stats: DesignMatrix column length mismatch")
			}
		}
	}
	k := len(cols)
	if intercept {
		k++
	}
	m := linalg.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		j := 0
		if intercept {
			m.Set(i, 0, 1)
			j = 1
		}
		for c := range cols {
			m.Set(i, j+c, cols[c][i])
		}
	}
	return m
}
