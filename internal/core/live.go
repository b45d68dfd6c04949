package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/arima"
	"repro/internal/ets"
	"repro/internal/tbats"
)

// WarmStart carries a previous run's solution into the next Engine.Run so
// the refit can skip most of the cold-start work: the incumbent champion's
// optimiser vector seeds a perturbed Nelder-Mead simplex, and the prior
// per-candidate scores shrink the grid to the top-K plus a small
// exploration band. A nil WarmStart (the default) runs the exact seed-
// behaviour cold path.
type WarmStart struct {
	// ChampionLabel names the incumbent champion; only the candidate with
	// this label is seeded with Params.
	ChampionLabel string
	// Params is the incumbent's optimiser-space parameter vector (from
	// LiveModel.Params). Unusable vectors fall back to the cold simplex.
	Params []float64
	// PriorScores maps candidate labels to their previous hold-out RMSE.
	// When non-empty, only the top-K scorers (plus the incumbent and an
	// exploration band of previously unscored candidates) are evaluated.
	PriorScores map[string]float64
	// TopK bounds the previously scored candidates kept (0 → 4).
	TopK int
	// Explore bounds the previously unscored candidates kept for
	// exploration (0 → 2; negative → none).
	Explore int
}

// WarmFromResult builds the warm-start options a stored result supports:
// incumbent parameters when its live model survived, prior scores from its
// scored candidates. It returns nil when the result carries nothing to
// warm-start from (callers then run cold).
func WarmFromResult(r *Result) *WarmStart {
	if r == nil {
		return nil
	}
	w := &WarmStart{ChampionLabel: r.Champion.Label}
	if r.Live != nil {
		w.Params = r.Live.Params()
	}
	for _, c := range r.Candidates {
		if c.Err != nil || math.IsNaN(c.Score.RMSE) {
			continue
		}
		if w.PriorScores == nil {
			w.PriorScores = make(map[string]float64, len(r.Candidates))
		}
		w.PriorScores[c.Label] = c.Score.RMSE
	}
	if w.Params == nil && w.PriorScores == nil {
		return nil
	}
	return w
}

// shrinkCandidates keeps the top-K candidates by prior score, the
// incumbent champion, and the first Explore candidates the previous run
// never scored (so newly enumerated shapes still get a look). Original
// order is preserved. With no prior scores the grid passes through
// untouched.
func shrinkCandidates(cands []CandidateResult, w *WarmStart) (kept []CandidateResult, skipped int) {
	if w == nil || len(w.PriorScores) == 0 {
		return cands, 0
	}
	topK := w.TopK
	if topK <= 0 {
		topK = 4
	}
	explore := w.Explore
	if explore == 0 {
		explore = 2
	} else if explore < 0 {
		explore = 0
	}
	type scored struct {
		idx   int
		score float64
	}
	var sc []scored
	var unscored []int
	for i := range cands {
		if s, ok := w.PriorScores[cands[i].Label]; ok {
			sc = append(sc, scored{i, s})
		} else {
			unscored = append(unscored, i)
		}
	}
	if len(sc) == 0 {
		return cands, 0
	}
	sort.SliceStable(sc, func(a, b int) bool { return sc[a].score < sc[b].score })
	keep := make(map[int]bool, topK+explore+1)
	for i := 0; i < len(sc) && i < topK; i++ {
		keep[sc[i].idx] = true
	}
	for i := range cands {
		if cands[i].Label == w.ChampionLabel {
			keep[i] = true
		}
	}
	for i := 0; i < len(unscored) && i < explore; i++ {
		keep[unscored[i]] = true
	}
	kept = make([]CandidateResult, 0, len(keep))
	for i := range cands {
		if keep[i] {
			kept = append(kept, cands[i])
		}
	}
	return kept, len(cands) - len(kept)
}

// LiveModel is a fitted candidate, retained with its regressor design so
// newly observed points can be folded into the filter state in place
// (Advance) and forecasts regenerated from the new origin (Forecast)
// without touching an optimiser. Scoring forecasts the hold-out window
// from a training-window LiveModel; Result.Live is the champion refitted
// on the full series, which the serve loop advances.
type LiveModel struct {
	mu     sync.Mutex
	family string
	level  float64
	// n is the absolute series length the state currently reflects; the
	// regressor design is indexed by it, so shock phases and Fourier
	// angles stay aligned as the series grows.
	n    int
	regs *Regressors

	arima *arima.Model
	ets   *ets.Model
	tbats *tbats.Model
}

// Family names the live model's family ("SARIMAX", "HES", "ARIMA",
// "TBATS").
func (lm *LiveModel) Family() string { return lm.family }

// Len reports the absolute series length the state currently reflects.
func (lm *LiveModel) Len() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.n
}

// Params returns the champion's optimiser-space parameter vector, the
// warm-start seed for the next refit (nil when the family has none).
func (lm *LiveModel) Params() []float64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	switch {
	case lm.arima != nil:
		return lm.arima.OptVector()
	case lm.ets != nil:
		return lm.ets.OptVector()
	case lm.tbats != nil:
		return lm.tbats.OptVector()
	}
	return nil
}

// Advance folds newly observed points into the model state in place.
// Exogenous regressor rows for the new observations are regenerated from
// the stored design (deterministic in the absolute index), so shock and
// Fourier columns stay consistent with fit time.
func (lm *LiveModel) Advance(points []float64) error {
	if len(points) == 0 {
		return fmt.Errorf("core: advance needs at least one point")
	}
	for i, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: advance point %d is not finite", i)
		}
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	switch {
	case lm.arima != nil:
		var rows [][]float64
		if lm.regs != nil && !lm.regs.Empty() {
			rows = lm.regs.Future(lm.n, len(points))
		}
		if err := lm.arima.Advance(points, rows); err != nil {
			return err
		}
	case lm.ets != nil:
		if err := lm.ets.Advance(points); err != nil {
			return err
		}
	case lm.tbats != nil:
		if err := lm.tbats.Advance(points); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: live model has no fitted family model")
	}
	lm.n += len(points)
	return nil
}

// Forecast regenerates an h-step forecast from the current state.
func (lm *LiveModel) Forecast(h int) (mean, se, lower, upper []float64, err error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	switch {
	case lm.arima != nil:
		var future [][]float64
		if lm.regs != nil && !lm.regs.Empty() {
			future = lm.regs.Future(lm.n, h)
		}
		fc, ferr := lm.arima.Forecast(h, future, lm.level)
		if ferr != nil {
			return nil, nil, nil, nil, ferr
		}
		return fc.Mean, fc.SE, fc.Lower, fc.Upper, nil
	case lm.ets != nil:
		fc, ferr := lm.ets.Forecast(h, lm.level)
		if ferr != nil {
			return nil, nil, nil, nil, ferr
		}
		return fc.Mean, fc.SE, fc.Lower, fc.Upper, nil
	case lm.tbats != nil:
		fc, ferr := lm.tbats.Forecast(h, lm.level)
		if ferr != nil {
			return nil, nil, nil, nil, ferr
		}
		return fc.Mean, fc.SE, fc.Lower, fc.Upper, nil
	}
	return nil, nil, nil, nil, fmt.Errorf("core: live model has no fitted family model")
}

// Diagnose runs the champion's residual checks (Ljung-Box, Jarque-Bera)
// when it is an ARIMA-family model; nil for HES/TBATS champions and for a
// result without a live model. The checks read the live model's
// residuals, so after Advanced they also cover the folded-in points.
func (r *Result) Diagnose() *arima.Diagnostics {
	if r.Live == nil {
		return nil
	}
	r.Live.mu.Lock()
	defer r.Live.mu.Unlock()
	if r.Live.arima == nil {
		return nil
	}
	d := r.Live.arima.Diagnose()
	return &d
}

// Advanced folds points into the live champion's state and regenerates the
// production forecast from the new origin: the returned result is a
// shallow copy of r whose Forecast starts len(points) steps later. The
// receiver's Live model is advanced in place (the copy shares it), so on
// error the caller should fall back to a real refit. No optimiser runs —
// this is the O(1)-per-point horizon-exhaustion path.
func (r *Result) Advanced(points []float64) (*Result, error) {
	if r.Live == nil {
		return nil, fmt.Errorf("core: result has no live champion model")
	}
	if r.Forecast == nil || len(r.Forecast.Mean) == 0 {
		return nil, fmt.Errorf("core: result has no forecast to roll forward")
	}
	if err := r.Live.Advance(points); err != nil {
		return nil, err
	}
	h := len(r.Forecast.Mean)
	mean, se, lower, upper, err := r.Live.Forecast(h)
	if err != nil {
		return nil, err
	}
	r2 := *r
	r2.Forecast = &Prediction{
		Start: r.Forecast.Start.Add(time.Duration(len(points)) * r.Forecast.Freq.Step()),
		Freq:  r.Forecast.Freq,
		Mean:  mean, SE: se, Lower: lower, Upper: upper,
		Level: r.Forecast.Level,
	}
	return &r2, nil
}
