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

// wideKernelCase draws the high-order shapes PrunedGrid proposes: p up to
// 24 next to a seasonal AR of order up to 2 at s = 24, so the expanded AR
// list reaches 48 terms and more. Coefficients shrink with the order to
// keep most series finite. The length is the AR warm-up plus 0…9 rows,
// often plus a longer stretch, so every remainder of the row blocks
// occurs with and without whole blocks before it. A third of the series
// carry a non-finite value inside the blocked rows.
func wideKernelCase(rng *rand.Rand) kernelCase {
	p, sp := 1+rng.Intn(24), rng.Intn(3)
	q, sq := rng.Intn(4), rng.Intn(3)
	scale := func(coeffs []float64, k int) []float64 {
		for i := range coeffs {
			coeffs[i] /= float64(k)
		}
		return coeffs
	}
	kc := kernelCase{
		c:      rng.NormFloat64(),
		arFull: expandSeasonal(scale(randomCoeffs(rng, p), p), randomCoeffs(rng, sp), 24),
		maFull: expandSeasonal(randomCoeffs(rng, q), randomCoeffs(rng, sq), 24),
	}
	warm := len(kc.arFull)
	n := warm + rng.Intn(2*rowBlock+2)
	if rng.Intn(2) == 0 {
		n += 40 + rng.Intn(120)
	}
	kc.w = make([]float64, n)
	for i := range kc.w {
		kc.w[i] = 10 * rng.NormFloat64()
	}
	split := max(warm, lastNonZeroLag(kc.maFull))
	if blocked := (n - split) / rowBlock * rowBlock; blocked > 0 && rng.Intn(3) == 0 {
		kc.w[split+rng.Intn(blocked)] = nonFinite(rng)
	}
	return kc
}

// lastNonZeroLag returns the longest lag with a non-zero coefficient, or 0.
func lastNonZeroLag(poly []float64) int {
	for i := len(poly) - 1; i >= 0; i-- {
		if poly[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// fixedKernelCases pin the shapes the randomized draw may miss: an MA lag
// longer than the AR lag (the split inside the recursion), a series
// shorter than the longest MA lag, non-finite values in w and in the
// coefficients, and a 72-term AR list over every row-block remainder.
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
	ar48 := make([]float64, 24)
	for i := range ar48 {
		ar48[i] = 0.02 * float64(i%5-2)
	}
	ar48 = expandSeasonal(ar48, []float64{0.3, -0.2}, 24)
	inBlock := series(len(ar48) + 40)
	inBlock[len(ar48)+2] = math.NaN()
	inBlock[len(ar48)+21] = math.Inf(-1)
	cases := []kernelCase{
		{w: series(100), c: 0.1, arFull: []float64{0.5}, maFull: sma24},
		{w: series(10), c: 0, arFull: []float64{0.5}, maFull: sma24},
		{w: series(0), c: 0, arFull: nil, maFull: nil},
		{w: series(3), c: 0, arFull: []float64{0.2, 0.1, 0, 0.3}, maFull: []float64{0.3}},
		{w: series(50), c: 1, arFull: []float64{0, 0, 0.4}, maFull: []float64{0, 0, 0, 0, 0.2}},
		{w: withNaN, c: 0, arFull: []float64{0.5, 0}, maFull: []float64{0.3}},
		{w: withInf, c: 0, arFull: []float64{0, 0, 0, 0, 0, 0, 0.5}, maFull: []float64{0.3}},
		{w: series(60), c: 0, arFull: []float64{math.NaN(), 0.1}, maFull: []float64{0.3}},
		{w: series(60), c: 0, arFull: []float64{0.1}, maFull: []float64{0, math.Inf(-1)}},
		{w: inBlock, c: 0.2, arFull: ar48, maFull: sma24},
	}
	// Every block remainder, with zero, one and two whole blocks before it,
	// on a 72-term AR list and on an MA list longer than the AR list.
	for r := 0; r <= 2*rowBlock+1; r++ {
		cases = append(cases,
			kernelCase{w: series(len(ar48) + r), c: 0.1, arFull: ar48, maFull: []float64{0.3}},
			kernelCase{w: series(len(sma24) + r), c: 0.1, arFull: []float64{0.5}, maFull: sma24})
	}
	return cases
}

// sameBits reports bit equality, except that any two NaNs match: Go does
// not specify which operand's payload a NaN result carries, and the
// compiler may order an addition's operands differently in two builds
// (it does under -race), so NaN payloads are not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestCSSKernelMatchesDenseOracle requires the sparse-lag, row-blocked CSS
// kernel to reproduce the dense row-by-row recursion exactly: the same CSS
// bits and the same bits in every residual, through the allocating entry
// point and through a dirty reused workspace, and when the recursion
// resumes part-way with a carried-over CSS, once as Advance does and in
// short chunks whose starts fall anywhere within a block.
func TestCSSKernelMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	cases := fixedKernelCases()
	for i := 0; i < 3000; i++ {
		cases = append(cases, randomKernelCase(rng))
	}
	for i := 0; i < 1500; i++ {
		cases = append(cases, wideKernelCase(rng))
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

		chunked := make([]float64, n)
		for j := range chunked {
			chunked[j] = math.NaN()
		}
		zero(chunked[:warm])
		css = 0
		for start := warm; start < n; {
			end := min(n, start+1+rng.Intn(2*rowBlock))
			css = innovations(kc.w[:end], kc.c, lags, chunked[:end], start, css)
			start = end
		}
		check("chunked", css, chunked)
	}
}

// BenchmarkCSSKernel times one CSS objective evaluation through the
// workspace, as Nelder–Mead calls it, on four weeks of hourly data. The
// sparse shape has three non-zero lags in each polynomial; the dense shape is what PrunedGrid proposes for a
// series with many significant PACF lags next to a seasonal AR term: 48
// non-zero AR lags.
func BenchmarkCSSKernel(b *testing.B) {
	const n = 28 * 24
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Sin(2*math.Pi*float64(i)/24) + 0.1*math.Cos(0.7*float64(i))
	}
	dense := make([]float64, 24)
	for i := range dense {
		dense[i] = 0.3 / float64(i+2)
	}
	shapes := []struct {
		name           string
		arFull, maFull []float64
	}{
		{"sparse-(1,1,1)(1,1,1,24)",
			expandSeasonal([]float64{0.4}, []float64{0.3}, 24),
			expandSeasonal([]float64{0.2}, []float64{0.5}, 24)},
		{"dense-(24,0,0)(1,1,0,24)", expandSeasonal(dense, []float64{0.3}, 24), nil},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			ws := NewWorkspace()
			var sink float64
			for i := 0; i < b.N; i++ {
				css, _ := ws.conditionalSSInto(w, 0.01, sh.arFull, sh.maFull)
				sink += css
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN CSS")
			}
		})
	}
}
