// Package fourier implements the frequency-domain analysis of §4 ("Fast
// Fourier Transform (FFT) to analyse data that is complex in a time
// domain") and §4.4's Fourier-term regressors for multiple seasonality.
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. Arbitrary lengths are
// supported: powers of two run the iterative radix-2 Cooley-Tukey
// algorithm; other lengths use Bluestein's chirp-z reduction to a
// power-of-two convolution. An empty input returns nil.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		fftPow2(out, false)
		return out
	}
	return bluestein(x)
}

// FFTReal transforms a real-valued series.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// fftPow2 runs an in-place iterative radix-2 FFT. inverse selects the
// conjugate transform (without the 1/n scaling).
func fftPow2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wn := cmplx.Rect(1, ang)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wn
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	// Chirp factors w[k] = exp(-iπk²/n).
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	// Convolution length: next power of two >= 2n−1.
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2(a, false)
	fftPow2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftPow2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// Periodogram returns the one-sided power spectrum of x after mean
// removal. Element k (k = 1 … n/2) is the power at frequency k/n cycles
// per sample; element 0 (the mean) is set to zero. The second return value
// maps each index to its period in samples (n/k).
func Periodogram(x []float64) (power []float64, period []float64) {
	n := len(x)
	if n < 4 {
		return nil, nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	centered := make([]float64, n)
	for i, v := range x {
		centered[i] = v - mean
	}
	spec := FFTReal(centered)
	half := n / 2
	power = make([]float64, half+1)
	period = make([]float64, half+1)
	period[0] = math.Inf(1)
	for k := 1; k <= half; k++ {
		c := spec[k]
		power[k] = (real(c)*real(c) + imag(c)*imag(c)) / float64(n)
		period[k] = float64(n) / float64(k)
	}
	return power, period
}

// SeasonCandidate is a detected seasonal period with its spectral strength.
type SeasonCandidate struct {
	// Period is the season length in samples (e.g. 24 for daily cycles in
	// hourly data).
	Period int
	// Power is the periodogram value at the corresponding frequency.
	Power float64
	// Share is Power as a fraction of the total spectral power.
	Share float64
}

// DetectSeasonality scans the periodogram for dominant periods. It returns
// candidates whose spectral share exceeds minShare (e.g. 0.02), strongest
// first, with near-duplicate harmonics (within ±1 sample of an already
// accepted period, or an exact integer divisor of one) suppressed.
// maxPeriod bounds the longest admissible season — at least two full
// cycles must fit into the data.
func DetectSeasonality(x []float64, minShare float64, maxPeriods int) []SeasonCandidate {
	power, period := Periodogram(x)
	if power == nil {
		return nil
	}
	var total float64
	for _, p := range power {
		total += p
	}
	if total == 0 {
		return nil
	}
	maxPeriod := len(x) / 2
	type idxPow struct {
		k int
		p float64
	}
	var peaks []idxPow
	for k := 1; k < len(power); k++ {
		peaks = append(peaks, idxPow{k, power[k]})
	}
	// Strongest first.
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].p > peaks[j-1].p; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	var out []SeasonCandidate
	for _, pk := range peaks {
		if len(out) >= maxPeriods {
			break
		}
		share := pk.p / total
		if share < minShare {
			break
		}
		p := int(math.Round(period[pk.k]))
		if p < 2 || p > maxPeriod {
			continue
		}
		dup := false
		for _, acc := range out {
			if abs(p-acc.Period) <= 1 {
				dup = true
				break
			}
			// Suppress harmonics: an accepted period divisible by p means
			// p is a harmonic of acc (e.g. 12 when 24 is already in).
			// Longer multiples (168 when 24 is in) are genuine additional
			// seasons — the paper's "seasons within seasons" — and stay.
			if acc.Period%p == 0 {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, SeasonCandidate{Period: p, Power: pk.p, Share: share})
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Terms generates the Fourier regressor matrix of the paper's equation
// (15): for each period Pᵢ and harmonic k = 1…Kᵢ it emits the pair
// sin(2πkt/Pᵢ), cos(2πkt/Pᵢ) evaluated at t = offset … offset+n−1.
// The result is a slice of 2·ΣKᵢ columns, each of length n, ordered
// sin/cos by period then harmonic. It returns an error for invalid
// periods or harmonic counts.
func Terms(n, offset int, periods []int, harmonics []int) ([][]float64, error) {
	if len(periods) != len(harmonics) {
		return nil, fmt.Errorf("fourier: %d periods but %d harmonic counts", len(periods), len(harmonics))
	}
	var cols [][]float64
	for i, p := range periods {
		if p < 2 {
			return nil, fmt.Errorf("fourier: period %d must be >= 2", p)
		}
		k := harmonics[i]
		if k < 1 || 2*k > p {
			return nil, fmt.Errorf("fourier: harmonics %d invalid for period %d (need 1 <= K <= P/2)", k, p)
		}
		for j := 1; j <= k; j++ {
			sin := make([]float64, n)
			cos := make([]float64, n)
			w := 2 * math.Pi * float64(j) / float64(p)
			for t := 0; t < n; t++ {
				arg := w * float64(offset+t)
				sin[t] = math.Sin(arg)
				cos[t] = math.Cos(arg)
			}
			cols = append(cols, sin, cos)
		}
	}
	return cols, nil
}
