// Package core implements the paper's learning engine (Figure 4 and §5):
// the automated pipeline that takes a monitored metric series and — with
// no time-series expertise from the user — repairs gaps, splits
// train/test per Table 1, characterises the data (stationarity,
// seasonality, multiple seasonality, shocks), enumerates candidate
// models, fits them in parallel, selects the champion by hold-out RMSE,
// and keeps it in a model store until it goes stale (one week) or its
// accuracy degrades.
package core

import (
	"fmt"
	"math"

	"repro/internal/decompose"
	"repro/internal/fourier"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Analysis characterises a series, mirroring the decision diamonds of the
// paper's Figure 4 flow.
type Analysis struct {
	// D is the suggested non-seasonal differencing order (Box-Jenkins):
	// 0 when the level series' ADF test rejects a unit root, else 1.
	D int
	// Stationary reports the ADF verdict on the raw series.
	Stationary bool
	// ADFStat and ADFPValue record the test.
	ADFStat, ADFPValue float64

	// Period is the primary seasonal period (0 when none detected).
	Period int
	// SeasonalStrength is the Hyndman F_s statistic for Period.
	SeasonalStrength float64
	// SeasonalD is the suggested seasonal differencing (1 when strong
	// seasonality is present, else 0).
	SeasonalD int

	// ExtraPeriods lists secondary seasonal periods (multiple
	// seasonality, challenge C3), strongest first.
	ExtraPeriods []int

	// Shocks lists detected recurring shock behaviours (challenge C4).
	Shocks []Shock
	// DiscardedOutliers counts outliers that occurred too rarely to be a
	// behaviour (the paper's "if a system crashes we discard it").
	DiscardedOutliers int
	// Unstable flags a system in fault (§9: "when a system is unstable or
	// in a period of fault … forecasting will not be a true reflection of
	// the system"): non-recurring outliers exceed 2% of the observations.
	// The engine still forecasts, but the report carries the warning and
	// operators should apply the paper's manual override.
	Unstable bool

	// ACF and PACF hold the first 30-lag correlograms (Figure 1a).
	ACF, PACF []float64
	// Band is the white-noise confidence band for the correlograms.
	Band float64
}

// Shock is a recurring load event — backup, batch job — detected at a
// fixed phase of the seasonal cycle.
type Shock struct {
	// Phase is the offset within the primary period (e.g. hour-of-day for
	// hourly data with period 24).
	Phase int
	// Occurrences counts how many cycles exhibited the outlier.
	Occurrences int
	// MeanMagnitude is the average excess over the seasonal baseline.
	MeanMagnitude float64
	// Positive is true for upward shocks (load spikes).
	Positive bool
}

// AnalyzeOptions tunes the analysis.
type AnalyzeOptions struct {
	// Period forces the primary seasonal period; 0 auto-detects from the
	// series frequency and periodogram.
	Period int
	// MinShockOccurrences is the paper's "more than 3 times" rule: an
	// outlier phase must recur at least this often to count as a
	// behaviour. 0 means 4.
	MinShockOccurrences int
	// ShockThreshold is the MAD multiple for outlier detection; 0 = 3.5.
	ShockThreshold float64
	// MaxLag bounds the correlograms; 0 = 30 (the paper's choice).
	MaxLag int
}

// Analyze characterises the series. The series must be gap-free
// (Interpolate first); an error is returned otherwise.
func Analyze(s *timeseries.Series, opt AnalyzeOptions) (*Analysis, error) {
	if s.HasMissing() {
		return nil, fmt.Errorf("core: series %q has gaps; interpolate before analysis", s.Name)
	}
	y := s.Values
	if len(y) < 24 {
		return nil, fmt.Errorf("core: series %q too short to analyse (%d points)", s.Name, len(y))
	}
	minOcc := opt.MinShockOccurrences
	if minOcc <= 0 {
		minOcc = 4
	}
	thresh := opt.ShockThreshold
	if thresh <= 0 {
		thresh = 3.5
	}
	maxLag := opt.MaxLag
	if maxLag <= 0 {
		maxLag = 30
	}
	if maxLag > len(y)/3 {
		maxLag = len(y) / 3
	}

	a := &Analysis{}

	// Stationarity and differencing (Box-Jenkins, Figure 1c): one ADF on
	// the level series. d=0 when it rejects a unit root, otherwise d=1 —
	// capacity metrics essentially never need d=2, so the paper's
	// "usually should not be greater than" guidance caps d at 1 and
	// further tests on the differenced series could not change it.
	a.D = 1
	if adf, err := stats.ADF(y, stats.ADFConstant, -1); err == nil {
		a.Stationary = adf.Stationary
		a.ADFStat = adf.Stat
		a.ADFPValue = adf.PValue
		if adf.Stationary {
			a.D = 0
		}
	}

	// Seasonality: candidate periods from the periodogram, anchored by
	// the frequency's natural period.
	natural := s.Freq.Period()
	cands := fourier.DetectSeasonality(y, 0.015, 4)
	period := opt.Period
	if period == 0 {
		for _, c := range cands {
			if c.Period >= 2 && len(y) >= 2*c.Period {
				period = c.Period
				break
			}
		}
		// Prefer the natural period when the periodogram lands near it.
		if period != 0 && abs(period-natural) <= 2 && len(y) >= 2*natural {
			period = natural
		}
	}
	// Fall back to the frequency's natural period when the periodogram is
	// inconclusive but the data could hold one.
	if period == 0 && len(y) >= 3*natural {
		period = natural
	}

	// Shock detection runs on the candidate period BEFORE the seasonal
	// strength check: large shocks inflate the decomposition residual and
	// would otherwise mask genuine seasonality (§7: shocks must be
	// "understood and accounted for").
	a.Shocks, a.DiscardedOutliers = detectShocks(y, period, thresh, minOcc)
	a.Unstable = a.DiscardedOutliers > len(y)/50

	// Three full cycles are required to *model* a season (seasonal
	// differencing plus seasonal AR lags consume one cycle each).
	if period >= 2 && len(y) >= 3*period {
		cleaned := suppressOutliers(y, thresh)
		dec, err := decompose.Classical(cleaned, period, decompose.Additive)
		if err == nil {
			a.SeasonalStrength = dec.SeasonalStrength()
		}
		if a.SeasonalStrength >= 0.3 {
			a.Period = period
			a.SeasonalD = 1
		}
	}

	// Multiple seasonality: other detected periods beyond the primary.
	for _, c := range cands {
		if a.Period != 0 && (abs(c.Period-a.Period) <= 2 || c.Period == a.Period) {
			continue
		}
		// Divisors of the primary are harmonics of its (non-sinusoidal)
		// shape — the seasonal ARIMA already models them. Genuine extra
		// seasons are longer (weekly over daily), not shorter.
		if a.Period != 0 && c.Period < a.Period && a.Period%c.Period == 0 {
			continue
		}
		// Require at least three full cycles: longer "periods" are
		// usually trend artefacts of the periodogram, not seasons.
		if c.Period < 2 || len(y) < 3*c.Period {
			continue
		}
		a.ExtraPeriods = append(a.ExtraPeriods, c.Period)
	}

	// Correlograms on the differenced scale (Figure 1a).
	w := timeseries.Difference(y, a.D, a.SeasonalD, max(a.Period, 1))
	if len(w) > maxLag*3 {
		a.ACF = stats.ACF(w, maxLag)
		a.PACF = stats.PACF(w, maxLag)
		a.Band = stats.ConfidenceBand(len(w), 0.95)
	}
	return a, nil
}

// suppressOutliers replaces rolling-median outliers beyond thresh·MAD with
// the local median, so shocks do not pollute the seasonal-strength check.
func suppressOutliers(y []float64, thresh float64) []float64 {
	resid, base := rollingResiduals(y)
	mad := stats.MAD(resid)
	if mad == 0 || math.IsNaN(mad) {
		return y
	}
	out := append([]float64(nil), y...)
	for i, r := range resid {
		if math.Abs(r) > thresh*mad {
			out[i] = base[i]
		}
	}
	return out
}

// rollingResiduals returns y minus a centred leave-one-out rolling median
// (the median of the four nearest neighbours, excluding the point
// itself), plus the baseline. Excluding the centre matters: a centred
// median of a locally monotone window equals the centre value exactly,
// which would make most residuals — and hence their MAD — identically
// zero.
func rollingResiduals(y []float64) (resid, base []float64) {
	resid = make([]float64, len(y))
	base = make([]float64, len(y))
	const half = 2
	win := make([]float64, 0, 2*half)
	for i, v := range y {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(y) {
			hi = len(y) - 1
		}
		win = win[:0]
		for j := lo; j <= hi; j++ {
			if j == i {
				continue
			}
			win = append(win, y[j])
		}
		base[i] = stats.Median(win)
		resid[i] = v - base[i]
	}
	return resid, base
}

// detectShocks finds recurring outliers. The baseline is a centred
// rolling median, which tracks smooth seasonal movement but is robust to
// short spikes — so a backup that fires every midnight still stands out
// (a per-phase baseline would absorb perfectly recurring shocks into the
// seasonal profile and hide them). Excess residuals beyond thresh·MAD are
// grouped by phase within the period; a phase qualifying in at least
// minOcc cycles becomes a Shock behaviour.
func detectShocks(y []float64, period int, thresh float64, minOcc int) ([]Shock, int) {
	if period < 2 || len(y) < 3*period {
		return nil, 0
	}
	resid, _ := rollingResiduals(y)
	mad := stats.MAD(resid)
	if mad == 0 || math.IsNaN(mad) {
		return nil, 0
	}
	// Count outliers per phase.
	type acc struct {
		count int
		sum   float64
		pos   int
	}
	phases := make([]acc, period)
	total := 0
	for i, r := range resid {
		// Edge residuals come from one-sided windows and are biased on
		// sloped data; skip them.
		if i < 2 || i >= len(resid)-2 {
			continue
		}
		if math.Abs(r) > thresh*mad {
			p := i % period
			phases[p].count++
			phases[p].sum += math.Abs(r)
			if r > 0 {
				phases[p].pos++
			}
			total++
		}
	}
	var shocks []Shock
	recurring := 0
	for p, ph := range phases {
		if ph.count >= minOcc {
			shocks = append(shocks, Shock{
				Phase:         p,
				Occurrences:   ph.count,
				MeanMagnitude: ph.sum / float64(ph.count),
				Positive:      ph.pos*2 >= ph.count,
			})
			recurring += ph.count
		}
	}
	return shocks, total - recurring
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
