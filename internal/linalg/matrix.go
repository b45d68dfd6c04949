// Package linalg provides the small dense linear-algebra kernel used by the
// forecasting models: a row-major dense matrix, Householder QR with its
// triangular solves, and a least-squares driver.
//
// The package is deliberately minimal — it implements exactly what the
// ARIMA/ETS/TBATS estimators and the regression-based statistical tests
// need, with no external dependencies.
package linalg

import (
	"errors"
	"fmt"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a rows×cols matrix from data in row-major order.
// The slice is copied. It panics if len(data) != rows*cols.
//
// capplan:keep test fixture: the QR tests write their fixed systems in it.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m
}

// Reset makes m a zeroed rows×cols matrix, reusing its storage when it is
// large enough; the zero Matrix is ready to Reset. It panics if either
// dimension is not positive.
func (m *Matrix) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	if n := rows * cols; cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.rows, m.cols = rows, cols
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns the matrix-vector product m×v.
// It panics if len(v) != Cols().
//
// capplan:keep test fixture: the QR tests form right-hand sides with it.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes m×v into dst (length Rows).
// It panics if len(v) != Cols() or len(dst) != Rows().
func (m *Matrix) MulVecInto(dst, v []float64) {
	if len(v) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by vector of length %d into %d", m.rows, m.cols, len(v), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("linalg: singular matrix")
