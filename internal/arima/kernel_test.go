package arima

import (
	"math"
	"math/rand"
	"testing"
)

// denseConditionalSSIn is the reference CSS recursion: every row sweeps the
// whole expanded AR and MA polynomials, skipping zero coefficients and
// pre-sample residuals. The sparse-lag kernel must reproduce it bit for bit.
func denseConditionalSSIn(w []float64, c float64, arFull, maFull []float64, resid []float64) (css float64) {
	n := len(w)
	warm := len(arFull)
	if warm > n {
		return math.Inf(1)
	}
	for t := warm; t < n; t++ {
		v := w[t] - c
		for i, phi := range arFull {
			if phi != 0 {
				v -= phi * w[t-1-i]
			}
		}
		for j, th := range maFull {
			if th == 0 {
				continue
			}
			if t-1-j >= 0 {
				v += th * resid[t-1-j]
			}
		}
		resid[t] = v
		css += v * v
	}
	return css
}

// kernelCase is one randomized input to the CSS kernels.
type kernelCase struct {
	w              []float64
	c              float64
	arFull, maFull []float64
}

// randomCoeffs draws k coefficients in (−0.9, 0.9), each exactly zero with
// probability 1/3, so the expanded polynomials carry zero entries at
// non-zero lag positions as well as the structural seasonal gaps.
func randomCoeffs(rng *rand.Rand, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		if rng.Intn(3) > 0 {
			out[i] = 1.8*rng.Float64() - 0.9
		}
	}
	return out
}

// nonFinite returns NaN, +Inf or −Inf.
func nonFinite(rng *rand.Rand) float64 {
	return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

func randomKernelCase(rng *rand.Rand) kernelCase {
	s := [...]int{0, 7, 24}[rng.Intn(3)]
	p, q := rng.Intn(4), rng.Intn(4)
	var sp, sq int
	if s > 0 {
		sp, sq = rng.Intn(3), rng.Intn(3)
	}
	kc := kernelCase{
		c:      rng.NormFloat64(),
		arFull: expandSeasonal(randomCoeffs(rng, p), randomCoeffs(rng, sp), s),
		maFull: expandSeasonal(randomCoeffs(rng, q), randomCoeffs(rng, sq), s),
	}
	// Mostly long series, sometimes one shorter than the longest MA lag or
	// than the AR warm-up itself.
	n := len(kc.arFull) + rng.Intn(200)
	switch rng.Intn(6) {
	case 0:
		n = len(kc.arFull) + rng.Intn(len(kc.maFull)+1)
	case 1:
		n = rng.Intn(len(kc.arFull) + 1)
	}
	kc.w = make([]float64, n)
	for i := range kc.w {
		kc.w[i] = 10 * rng.NormFloat64()
	}
	if rng.Intn(5) == 0 && n > 0 {
		kc.w[rng.Intn(n)] = nonFinite(rng)
	}
	for _, poly := range [][]float64{kc.arFull, kc.maFull} {
		if rng.Intn(8) == 0 && len(poly) > 0 {
			poly[rng.Intn(len(poly))] = nonFinite(rng)
		}
	}
	return kc
}

// fixedKernelCases pin the shapes the randomized draw may miss: an MA lag
// longer than the AR lag (the split inside the recursion), a series
// shorter than the longest MA lag, and non-finite values in w and in the
// coefficients.
func fixedKernelCases() []kernelCase {
	series := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Sin(0.3*float64(i)) + 0.01*float64(i)
		}
		return w
	}
	sma24 := expandSeasonal([]float64{0.4}, []float64{-0.6}, 24)
	withNaN := series(60)
	withNaN[30] = math.NaN()
	withInf := series(60)
	withInf[5] = math.Inf(1)
	return []kernelCase{
		{w: series(100), c: 0.1, arFull: []float64{0.5}, maFull: sma24},
		{w: series(10), c: 0, arFull: []float64{0.5}, maFull: sma24},
		{w: series(0), c: 0, arFull: nil, maFull: nil},
		{w: series(3), c: 0, arFull: []float64{0.2, 0.1, 0, 0.3}, maFull: []float64{0.3}},
		{w: series(50), c: 1, arFull: []float64{0, 0, 0.4}, maFull: []float64{0, 0, 0, 0, 0.2}},
		{w: withNaN, c: 0, arFull: []float64{0.5, 0}, maFull: []float64{0.3}},
		{w: withInf, c: 0, arFull: []float64{0, 0, 0, 0, 0, 0, 0.5}, maFull: []float64{0.3}},
		{w: series(60), c: 0, arFull: []float64{math.NaN(), 0.1}, maFull: []float64{0.3}},
		{w: series(60), c: 0, arFull: []float64{0.1}, maFull: []float64{0, math.Inf(-1)}},
	}
}

// sameBits reports bit equality, except that any two NaNs match: Go does
// not specify which operand's payload a NaN result carries, and the
// compiler may order an addition's operands differently in two builds
// (it does under -race), so NaN payloads are not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestCSSKernelMatchesDenseOracle requires the sparse-lag CSS kernel to
// reproduce the dense recursion exactly: the same CSS bits and the same
// bits in every residual, through the allocating entry point and through a
// dirty reused workspace, and when the recursion resumes part-way with a
// carried-over CSS as Advance does.
func TestCSSKernelMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	cases := fixedKernelCases()
	for i := 0; i < 3000; i++ {
		cases = append(cases, randomKernelCase(rng))
	}
	ws := NewWorkspace()
	for i, kc := range cases {
		n := len(kc.w)
		wantResid := make([]float64, n)
		wantCSS := denseConditionalSSIn(kc.w, kc.c, kc.arFull, kc.maFull, wantResid)
		check := func(path string, css float64, resid []float64) {
			t.Helper()
			if !sameBits(css, wantCSS) {
				t.Fatalf("case %d (%s, n=%d, ar=%v, ma=%v): css %v, dense %v", i, path, n, kc.arFull, kc.maFull, css, wantCSS)
			}
			for j := range wantResid {
				if !sameBits(resid[j], wantResid[j]) {
					t.Fatalf("case %d (%s): resid[%d] = %v, dense %v", i, path, j, resid[j], wantResid[j])
				}
			}
		}

		css, resid := conditionalSS(kc.w, kc.c, kc.arFull, kc.maFull)
		check("conditionalSS", css, resid)

		// Stale values in a reused workspace buffer must never leak.
		stale := ws.resid[:cap(ws.resid)]
		for j := range stale {
			stale[j] = math.NaN()
		}
		css, resid = ws.conditionalSSInto(kc.w, kc.c, kc.arFull, kc.maFull)
		check("workspace", css, resid)

		warm := len(kc.arFull)
		if warm >= n {
			continue
		}
		from := warm + rng.Intn(n-warm)
		resumed := make([]float64, n)
		lags := new(lagLists).set(kc.arFull, kc.maFull)
		head := innovations(kc.w[:from], kc.c, lags, resumed[:from], warm, 0)
		for j := from; j < n; j++ {
			resumed[j] = math.NaN()
		}
		css = innovations(kc.w, kc.c, lags, resumed, from, head)
		check("resumed", css, resumed)
	}
}
