package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/arima"
	"repro/internal/ets"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/tbats"
	"repro/internal/timeseries"
)

// Technique selects the algorithm branch of Figure 4: the user chooses
// "Holt-Winters Exponential Smoothing (HES) … or SARIMAX" (§5.1). The
// plain ARIMA branch exists as the paper's baseline family (Table 2).
type Technique int

const (
	// TechniqueSARIMAX runs the seasonal ARIMA branch with exogenous
	// shocks and Fourier terms — the paper's headline method.
	TechniqueSARIMAX Technique = iota
	// TechniqueHES runs the Holt-Winters exponential smoothing branch.
	TechniqueHES
	// TechniqueARIMA runs the non-seasonal baseline family.
	TechniqueARIMA
	// TechniqueTBATS runs the trigonometric-seasonality state-space
	// family of §4.3 — the complex-seasonality alternative to SARIMAX,
	// with candidate structures selected by AIC and the champion by
	// hold-out RMSE like every other branch.
	TechniqueTBATS
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case TechniqueSARIMAX:
		return "SARIMAX"
	case TechniqueHES:
		return "HES"
	case TechniqueARIMA:
		return "ARIMA"
	case TechniqueTBATS:
		return "TBATS"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Options configures an engine run.
type Options struct {
	// Technique selects the model family (Figure 4's branch choice).
	Technique Technique
	// Level is the prediction-interval coverage (0 → 0.95).
	Level float64
	// Horizon overrides the Table 1 horizon (0 → policy default).
	Horizon int
	// Workers bounds parallel model fitting (0 → GOMAXPROCS). The paper:
	// "Gains are also achieved by parallel processing the models."
	Workers int
	// MaxCandidates caps the pruned grid (0 → 48).
	MaxCandidates int
	// FullGrid evaluates the paper's full §6.3 grids (hundreds of models)
	// instead of the correlogram-pruned grid. Slow; used by the
	// benchmark harness.
	FullGrid bool
	// DisableExog suppresses shock regressors (for ablations).
	DisableExog bool
	// DisableFourier suppresses Fourier terms (for ablations).
	DisableFourier bool
	// FourierK lists harmonic counts to try for secondary periods
	// (nil → {1, 2}); the best by hold-out RMSE wins, per §4.4.
	FourierK []int
	// KnownShockPhases declares scheduled events the operator already
	// knows about (e.g. a backup at phases 0, 6, 12, 18 of the daily
	// cycle) — the paper's "as long as the exogenous variables (shocks)
	// are understood and accounted for". They are merged with detected
	// behaviours; duplicates collapse.
	KnownShockPhases []int
	// Analyze overrides analysis options.
	Analyze AnalyzeOptions
	// Warm carries a previous run's champion parameters and candidate
	// scores into this run: the incumbent seeds a perturbed Nelder-Mead
	// simplex and the grid shrinks to the top scorers plus an exploration
	// band (see WarmStart). nil — the default — runs the full cold path,
	// byte-identical to seed behaviour.
	Warm *WarmStart
	// FitTimeout bounds each candidate fit's wall time (0 = no limit).
	// A candidate that exceeds it is scored as a timed-out failure —
	// visible in fit_errors_total{cause="timeout"} and on its fit span —
	// while the rest of the grid still competes for champion, so one
	// pathological optimisation cannot wedge a worker. `capplan serve`
	// defaults this to 30s.
	FitTimeout time.Duration
	// Obs receives logs, pipeline spans and metrics for every run. nil
	// (the default) disables observability at zero cost.
	Obs *obs.Observer

	// fitHook is a test seam: when set it runs at the start of every
	// candidate fit with the candidate's fit context and label, and a
	// non-nil error (or a panic) stands in for the real fit outcome.
	fitHook func(ctx context.Context, label string) error
}

// CandidateResult records one evaluated model.
type CandidateResult struct {
	// Label is the model description, e.g. "SARIMAX (1,1,1)(1,1,1,24)+exog".
	Label string
	// Score holds the hold-out accuracy (RMSE, MAPE, MAPA, …).
	Score metrics.Score
	// AIC is the in-sample information criterion (NaN for HES variants
	// where it is incomparable).
	AIC float64
	// Err is non-nil when the fit failed; such candidates never win.
	Err error
	// FitDuration measures wall time for this candidate.
	FitDuration time.Duration

	cand     arima.Candidate
	etsKind  ets.Method
	isETS    bool
	fourierK int
	tbatsCfg *tbats.Config
}

// Prediction is the engine's unified forecast: point estimates with error
// bars, timestamped.
type Prediction struct {
	Start        time.Time
	Freq         timeseries.Frequency
	Mean         []float64
	Lower, Upper []float64
	SE           []float64
	Level        float64
}

// TimeAt returns the timestamp of forecast step i.
func (p *Prediction) TimeAt(i int) time.Time {
	return p.Start.Add(time.Duration(i) * p.Freq.Step())
}

// Result is an engine run outcome.
type Result struct {
	// SeriesName identifies what was modelled.
	SeriesName string
	// Technique is the branch that ran.
	Technique Technique
	// Analysis characterises the input.
	Analysis *Analysis
	// Candidates lists every evaluated model, best first.
	Candidates []CandidateResult
	// Champion is the winning candidate (lowest hold-out RMSE).
	Champion CandidateResult
	// TestScore repeats the champion's hold-out accuracy.
	TestScore metrics.Score
	// TestForecast is the champion's forecast over the hold-out window
	// (aligned with TestActual), the one it was scored with — the yellow
	// section of Figures 6 and 7.
	TestForecast []float64
	// TestActual is the hold-out data.
	TestActual []float64
	// Forecast is the production forecast: the champion refitted on the
	// full series and extended Horizon steps beyond its end.
	Forecast *Prediction
	// Diagnostics holds the champion's residual checks (Ljung-Box,
	// Jarque-Bera) when the champion is an ARIMA-family model; nil for
	// HES/TBATS champions.
	Diagnostics *arima.Diagnostics
	// Baselines scores the naive benchmark methods on the same hold-out
	// window; a champion worth storing beats them.
	Baselines map[string]metrics.Score
	// BeatsBaselines reports whether the champion's RMSE beats every
	// baseline's.
	BeatsBaselines bool
	// TrainLen and TestLen record the Table 1 split actually used.
	TrainLen, TestLen int
	// Elapsed is the total wall time; ModelsEvaluated the grid size.
	Elapsed         time.Duration
	ModelsEvaluated int
	// WarmStarted reports whether warm-start options (Options.Warm) were
	// in effect for this run — the monitor's refit_mode label reads it.
	WarmStarted bool
	// Live is the champion refitted on the full series, retained with its
	// regressor design so new observations can advance the model state in
	// place (Result.Advanced) without an optimiser call.
	Live *LiveModel
}

// ChampionFamily names the champion's model family ("SARIMAX", "HES",
// "ARIMA" or "TBATS") — the label the accuracy monitor keys its rolling
// scores by.
func (r *Result) ChampionFamily() string {
	return candidateFamily(&r.Champion)
}

// Engine runs the Figure 4 pipeline.
type Engine struct {
	opt Options
	// parent, when set, nests the run's trace under an enclosing span
	// (the fleet runner's per-workload span).
	parent *obs.Span
}

// WithParentSpan nests every subsequent Run trace under sp instead of
// opening a new root span. It returns the engine for chaining.
func (e *Engine) WithParentSpan(sp *obs.Span) *Engine {
	e.parent = sp
	return e
}

// startSpan opens the run's root span: a child of the configured parent
// when nested, otherwise parented on whatever trace evidence ctx
// carries — a monitor-triggered refit passes the trace of the ingest
// batch that tripped it, so the whole push→store→refit chain shares one
// trace ID. A bare ctx falls back to a fresh root.
func (e *Engine) startSpan(ctx context.Context, name string) *obs.Span {
	if e.parent != nil {
		return e.parent.Child(name)
	}
	return e.opt.Obs.StartSpanFrom(ctx, name)
}

// candidateFamily names the model family of a candidate for span
// attributes and metric labels.
func candidateFamily(c *CandidateResult) string {
	switch {
	case c.tbatsCfg != nil:
		return "TBATS"
	case c.isETS:
		return "HES"
	case c.cand.Spec.IsSeasonal():
		return "SARIMAX"
	default:
		return "ARIMA"
	}
}

// NewEngine validates options and returns an Engine.
func NewEngine(opt Options) (*Engine, error) {
	if opt.Level == 0 {
		opt.Level = 0.95
	}
	if opt.Level <= 0 || opt.Level >= 1 {
		return nil, fmt.Errorf("core: level %v outside (0,1)", opt.Level)
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Workers < 1 {
		return nil, fmt.Errorf("core: workers must be positive")
	}
	if opt.MaxCandidates == 0 {
		opt.MaxCandidates = 48
	}
	if len(opt.FourierK) == 0 {
		opt.FourierK = []int{1, 2}
	}
	return &Engine{opt: opt}, nil
}

// Run executes the pipeline on a series: gap repair → Table 1 split →
// analysis → candidate grid → parallel fit/score → champion → forecast.
// Stage failures come back wrapped with their Figure 4 stage name
// ("analyse: …"), so a fleet-scale failure is attributable without a
// debugger. ctx cancels the run cooperatively: in-flight candidate fits
// abort inside their optimisers and Run returns an error wrapping the
// context's cause (nil ctx means background).
func (e *Engine) Run(ctx context.Context, s *timeseries.Series) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := e.opt.Obs
	began := time.Now()
	run := e.startSpan(ctx, "engine.run")
	defer run.End()
	run.Set("series", s.Name)
	run.Set("technique", e.opt.Technique.String())
	if err := ctx.Err(); err != nil {
		err = fmt.Errorf("run: %w", err)
		run.Fail(err)
		return nil, err
	}
	// fail closes a failed stage: the stage span and the run span both
	// carry err, which names the stage.
	fail := func(sp *obs.Span, err error) (*Result, error) {
		sp.Fail(err)
		sp.End()
		run.Fail(err)
		return nil, err
	}

	// Stage 0 (Figure 4): fetch the series into working memory.
	sp := run.Child("fetch")
	work := s.Clone()
	sp.Set("observations", work.Len())
	sp.Set("freq", work.Freq.String())
	sp.End()

	// Stage 1 (Figure 4): missing values → linear interpolation.
	// Interpolation repairs occasional gaps; a series that is mostly
	// holes has no signal to learn and is refused.
	sp = run.Child("interpolate")
	if miss := work.MissingCount(); miss > 0 {
		sp.Set("missing", miss)
		if frac := float64(miss) / float64(work.Len()); frac > 0.25 {
			return fail(sp, fmt.Errorf("interpolate: series %q is %.0f%% missing — too sparse to model", s.Name, frac*100))
		}
		if _, err := work.Interpolate(); err != nil {
			return fail(sp, fmt.Errorf("interpolate: %w", err))
		}
	}
	sp.End()

	// Stage 2: train/test split per Table 1.
	sp = run.Child("split")
	policy, err := PolicyFor(work.Freq)
	if err != nil {
		return fail(sp, fmt.Errorf("split: %w", err))
	}
	train, test, err := policy.Split(work)
	if err != nil {
		return fail(sp, fmt.Errorf("split: %w", err))
	}
	horizon := e.opt.Horizon
	if horizon <= 0 {
		horizon = policy.Horizon
	}
	sp.Set("train", train.Len())
	sp.Set("test", test.Len())
	sp.End()

	// Stage 3: characterise the training data.
	sp = run.Child("analyse")
	an, err := Analyze(train, e.opt.Analyze)
	if err != nil {
		return fail(sp, fmt.Errorf("analyse: %w", err))
	}
	sp.Set("period", an.Period)
	sp.Set("d", an.D)
	sp.Set("seasonal_d", an.SeasonalD)
	sp.Set("shocks", len(an.Shocks))
	sp.End()
	o.Debug("analysis complete", "series", s.Name,
		"period", an.Period, "d", an.D, "seasonal_d", an.SeasonalD,
		"shocks", len(an.Shocks), "extra_periods", len(an.ExtraPeriods))
	// Merge operator-declared schedules with detected behaviours.
	if len(e.opt.KnownShockPhases) > 0 {
		period := max(an.Period, train.Freq.Period())
		have := make(map[int]bool, len(an.Shocks))
		for _, sh := range an.Shocks {
			have[sh.Phase] = true
		}
		for _, p := range e.opt.KnownShockPhases {
			p = ((p % period) + period) % period
			if have[p] {
				continue
			}
			an.Shocks = append(an.Shocks, Shock{
				Phase:       p,
				Occurrences: train.Len() / max(period, 1),
				Positive:    true,
			})
			have[p] = true
		}
	}

	// Stage 4: enumerate candidates for the chosen branch, then — on a
	// warm refit — shrink the grid to the previous run's top scorers plus
	// the incumbent and a small exploration band.
	sp = run.Child("build-candidates")
	cands := e.buildCandidates(train, an)
	sp.Set("candidates", len(cands))
	if len(cands) == 0 {
		return fail(sp, fmt.Errorf("build-candidates: no candidates for series %q", s.Name))
	}
	if e.opt.Warm != nil {
		kept, skipped := shrinkCandidates(cands, e.opt.Warm)
		if skipped > 0 {
			cands = kept
			sp.Set("grid_skipped", skipped)
			o.Count("refit_grid_skipped_total", int64(skipped))
			o.Debug("candidate grid shrunk by prior scores", "series", s.Name,
				"kept", len(cands), "skipped", skipped)
		}
	}
	sp.End()

	// Stage 4½: precompute shared fit inputs — one differenced series per
	// distinct (d, D, s), one regressor design per distinct
	// (exog, fourier, K) — so candidates share instead of recompute.
	sp = run.Child("precompute")
	rc := e.precompute(train.Values, an, cands, sp)
	sp.End()

	// Stage 5: fit and score in parallel.
	sp = run.Child("fit-score")
	sp.Set("workers", e.opt.Workers)
	results, testFCs := e.evaluate(ctx, train.Values, test.Values, an, cands, rc, sp)
	if err := ctx.Err(); err != nil {
		return fail(sp, fmt.Errorf("fit-score: %w", err))
	}
	sp.End()

	// Rank: best hold-out RMSE first; failed fits sink. The champion's
	// scoring forecast is the hold-out forecast the result reports.
	sp = run.Child("champion")
	sort.Stable(ranking{results, testFCs})
	champion := results[0]
	if champion.Err != nil {
		return fail(sp, fmt.Errorf("champion: every candidate failed; first error: %w", champion.Err))
	}
	sp.Set("label", champion.Label)
	sp.Set("rmse", champion.Score.RMSE)
	sp.End()
	o.Count("champion_family_total", 1, obs.L("family", candidateFamily(&champion)))
	o.Info("champion selected", "series", s.Name, "label", champion.Label,
		"rmse", champion.Score.RMSE, "mapa", champion.Score.MAPA,
		"candidates", len(results))

	// Stage 6: the production forecast, from the champion refitted on
	// the full series. The fitted model stays live for Result.Advanced.
	sp = run.Child("forecast")
	sp.Set("horizon", horizon)
	live, _, err := e.fit(ctx, &champion, work.Values, an, rc)
	if err != nil {
		return fail(sp, fmt.Errorf("forecast: champion production forecast: %w", err))
	}
	mean, se, lower, upper, err := live.Forecast(horizon)
	if err != nil {
		return fail(sp, fmt.Errorf("forecast: champion production forecast: %w", err))
	}
	var diag *arima.Diagnostics
	if live.arima != nil {
		d := live.arima.Diagnose()
		diag = &d
	}
	sp.End()

	// Baseline scores on the same hold-out window.
	baselines := map[string]metrics.Score{}
	beats := true
	for _, bm := range []naive.Method{naive.Last, naive.Drift, naive.Mean, naive.SeasonalNaive} {
		period := an.Period
		if period == 0 {
			period = train.Freq.Period()
		}
		bfc, berr := naive.Predict(bm, train.Values, period, len(test.Values), e.opt.Level)
		if berr != nil {
			// A missing baseline row must be distinguishable from a scored
			// one — count and log instead of silently dropping it.
			o.Count("baseline_errors_total", 1, obs.L("method", bm.String()))
			o.Debug("baseline failed", "series", s.Name, "method", bm.String(), "err", berr)
			continue
		}
		score := metrics.Evaluate(test.Values, bfc.Mean)
		baselines[bm.String()] = score
		if !(champion.Score.RMSE <= score.RMSE) {
			beats = false
		}
	}

	run.Set("models_evaluated", len(results))
	res := &Result{
		SeriesName:      s.Name,
		Technique:       e.opt.Technique,
		Analysis:        an,
		Candidates:      results,
		Champion:        champion,
		TestScore:       champion.Score,
		TestForecast:    testFCs[0],
		TestActual:      append([]float64(nil), test.Values...),
		TrainLen:        train.Len(),
		TestLen:         test.Len(),
		Elapsed:         time.Since(began),
		ModelsEvaluated: len(results),
		Diagnostics:     diag,
		Baselines:       baselines,
		BeatsBaselines:  beats,
		WarmStarted:     e.opt.Warm != nil,
		Live:            live,
		Forecast: &Prediction{
			Start: work.End(),
			Freq:  work.Freq,
			Mean:  mean, SE: se, Lower: lower, Upper: upper,
			Level: e.opt.Level,
		},
	}
	return res, nil
}

// buildCandidates assembles the candidate list for the configured branch.
func (e *Engine) buildCandidates(train *timeseries.Series, an *Analysis) []CandidateResult {
	var out []CandidateResult
	switch e.opt.Technique {
	case TechniqueHES:
		methods := []ets.Method{ets.Simple, ets.Holt, ets.DampedTrend}
		if an.Period >= 2 && train.Len() >= 2*an.Period+3 {
			methods = append(methods, ets.HoltWinters, ets.HoltWintersDamped)
		}
		for _, m := range methods {
			out = append(out, CandidateResult{Label: "HES " + m.String(), etsKind: m, isETS: true})
		}
	case TechniqueTBATS:
		periods := []int{max(an.Period, train.Freq.Period())}
		for _, p := range an.ExtraPeriods {
			if len(periods) < 2 {
				periods = append(periods, p)
			}
		}
		for _, cfg := range tbatsCandidates(periods) {
			cfg := cfg
			out = append(out, CandidateResult{Label: cfg.String(), tbatsCfg: &cfg})
		}
	case TechniqueARIMA:
		var cands []arima.Candidate
		if e.opt.FullGrid {
			cands = arima.ARIMAGrid()
		} else {
			cands = arima.PrunedGrid(train.Values, an.D, 0, 0, false, e.opt.MaxCandidates)
		}
		for _, c := range cands {
			out = append(out, CandidateResult{Label: "ARIMA " + c.Spec.String(), cand: c})
		}
	default: // TechniqueSARIMAX
		seasonal := an.Period >= 2
		var cands []arima.Candidate
		if e.opt.FullGrid {
			cands = arima.SARIMAXExogFourierGrid(max(an.Period, 2))
		} else {
			cands = arima.PrunedGrid(train.Values, an.D, an.SeasonalD, an.Period, seasonal, e.opt.MaxCandidates)
			// Augment the strongest shapes with exogenous and Fourier
			// variants, as in §6.3's "+ Exogenous (4) + Fourier Terms (2)".
			nAug := 4
			if nAug > len(cands) {
				nAug = len(cands)
			}
			if !e.opt.DisableExog && len(an.Shocks) > 0 {
				for i := 0; i < nAug; i++ {
					c := cands[i]
					c.UseExog = true
					cands = append(cands, c)
				}
			}
			if !e.opt.DisableFourier && len(an.ExtraPeriods) > 0 {
				for i := 0; i < min(2, len(cands)); i++ {
					c := cands[i]
					c.UseExog = !e.opt.DisableExog && len(an.Shocks) > 0
					c.UseFourier = true
					cands = append(cands, c)
				}
			}
		}
		for _, c := range cands {
			// Drop orders the training window cannot support.
			if need := c.Spec.LostObservations() + c.Spec.MaxARLag() + c.Spec.MaxMALag() + 10; need > train.Len() {
				continue
			}
			label := "SARIMAX " + c.Spec.String()
			if !c.Spec.IsSeasonal() {
				label = "ARIMA " + c.Spec.String()
			}
			if c.UseFourier {
				// One candidate per harmonic count K (§4.4: the K giving
				// the best RMSE wins).
				for _, k := range e.opt.FourierK {
					out = append(out, CandidateResult{
						Label:    fmt.Sprintf("%s+exog+fourierK%d", label, k),
						cand:     c,
						fourierK: k,
					})
				}
				continue
			}
			if c.UseExog {
				label += "+exog"
			}
			out = append(out, CandidateResult{Label: label, cand: c})
		}
	}
	return out
}

// evaluate fits every candidate on train and scores it on test, using a
// worker pool, returning the scored candidates and, index for index, the
// hold-out forecast each was scored with (nil for failed candidates).
// Each candidate gets a child span of parent recording its family, order
// label, hold-out RMSE, duration and error, plus the
// models_fitted_total / fit_errors_total counters and a per-technique
// fit-duration histogram. Cancelling ctx stops feeding the pool, aborts
// in-flight fits via their optimisers, and marks unqueued candidates
// failed; a per-candidate panic is contained to that candidate.
func (e *Engine) evaluate(ctx context.Context, train, test []float64, an *Analysis, cands []CandidateResult, rc *runCache, parent *obs.Span) ([]CandidateResult, [][]float64) {
	o := e.opt.Obs
	jobs := make(chan int)
	out := make([]CandidateResult, len(cands))
	copy(out, cands)
	fcs := make([][]float64, len(cands))
	queued := make([]bool, len(cands))
	var wg sync.WaitGroup
	for w := 0; w < e.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				fcs[idx] = e.fitCandidate(ctx, &out[idx], train, test, an, rc, parent)
			}
		}()
	}
	// The jobs channel is unbuffered, so once ctx is done no worker may
	// ever receive again — the send must select on ctx.Done or the
	// producer deadlocks.
feed:
	for i := range cands {
		select {
		case jobs <- i:
			queued[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for i := range out {
		if !queued[i] {
			markFailed(&out[i], fmt.Errorf("fit-score: %w", ctx.Err()))
			o.Count("fit_errors_total", 1, obs.L("cause", obs.ErrClass(ctx.Err())))
		}
	}
	return out, fcs
}

// ranking orders candidates best hold-out RMSE first, failed fits last,
// keeping each candidate's hold-out forecast at its index.
type ranking struct {
	res []CandidateResult
	fcs [][]float64
}

func (r ranking) Len() int { return len(r.res) }

func (r ranking) Less(i, j int) bool {
	if (r.res[i].Err == nil) != (r.res[j].Err == nil) {
		return r.res[i].Err == nil
	}
	return r.res[i].Score.Better(r.res[j].Score)
}

func (r ranking) Swap(i, j int) {
	r.res[i], r.res[j] = r.res[j], r.res[i]
	r.fcs[i], r.fcs[j] = r.fcs[j], r.fcs[i]
}

// fitCandidate fits and scores one candidate under its own span, fit
// deadline and panic barrier, writing the outcome into c and returning
// the hold-out forecast it was scored with (nil when it failed).
func (e *Engine) fitCandidate(ctx context.Context, c *CandidateResult, train, test []float64, an *Analysis, rc *runCache, parent *obs.Span) []float64 {
	o := e.opt.Obs
	csp := parent.Child("fit")
	csp.Set("candidate", c.Label)
	csp.Set("family", candidateFamily(c))
	fctx := ctx
	if e.opt.FitTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, e.opt.FitTimeout)
		defer cancel()
	}
	began := time.Now()
	fc, aic, err := e.forecastHoldOut(fctx, c, train, an, rc, len(test))
	c.FitDuration = time.Since(began)
	c.AIC = aic
	o.Count("models_fitted_total", 1)
	fitTrace := ""
	if tsc := csp.Context(); !tsc.IsZero() {
		fitTrace = tsc.Trace.String()
	}
	o.ObserveDurationTraced("fit_duration_seconds", c.FitDuration, fitTrace,
		obs.L("technique", e.opt.Technique.String()))
	if err != nil {
		markFailed(c, err)
		cause := obs.ErrClass(err)
		o.Count("fit_errors_total", 1, obs.L("cause", cause))
		o.Debug("candidate failed", "candidate", c.Label, "cause", cause, "err", err)
		if cause != "error" {
			csp.Set("cause", cause)
		}
		csp.Fail(err)
		csp.End()
		return nil
	}
	c.Score = metrics.Evaluate(test, fc)
	csp.Set("rmse", c.Score.RMSE)
	csp.Set("aic", aic)
	csp.End()
	o.Debug("candidate scored", "candidate", c.Label,
		"rmse", c.Score.RMSE, "dur", c.FitDuration)
	return fc
}

// forecastHoldOut fits c on train and forecasts the h-step hold-out
// window behind a panic barrier: a numerical blow-up inside one
// candidate's optimiser kills that candidate, not the run.
func (e *Engine) forecastHoldOut(ctx context.Context, c *CandidateResult, train []float64, an *Analysis, rc *runCache, h int) (fc []float64, aic float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.opt.Obs.Count("fit_panics_total", 1)
			fc, aic = nil, math.NaN()
			err = fmt.Errorf("candidate %q panicked: %v", c.Label, r)
		}
	}()
	if e.opt.fitHook != nil {
		if herr := e.opt.fitHook(ctx, c.Label); herr != nil {
			return nil, math.NaN(), herr
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, math.NaN(), fmt.Errorf("fit aborted: %w", cerr)
	}
	lm, aic, err := e.fit(ctx, c, train, an, rc)
	if err != nil {
		return nil, math.NaN(), err
	}
	fc, _, _, _, err = lm.Forecast(h)
	if err != nil {
		return nil, math.NaN(), err
	}
	return fc, aic, nil
}

// markFailed records a candidate failure so ranking sinks it.
func markFailed(c *CandidateResult, err error) {
	c.Err = err
	c.Score = metrics.Score{RMSE: math.NaN(), MAPE: math.NaN(), MAPA: math.NaN()}
}

// tbatsCandidates enumerates a compact TBATS structure set (the §4.3
// alternatives): trend on/off, damping, ARMA errors, two harmonic levels.
func tbatsCandidates(periods []int) []tbats.Config {
	harmonics := func(k int) []int {
		hs := make([]int, len(periods))
		for i, p := range periods {
			ki := k
			if 2*ki > p {
				ki = p / 2
			}
			if ki < 1 {
				ki = 1
			}
			hs[i] = ki
		}
		return hs
	}
	var out []tbats.Config
	for _, trend := range []struct{ t, d bool }{{false, false}, {true, false}, {true, true}} {
		for _, arma := range []struct{ p, q int }{{0, 0}, {1, 1}} {
			for _, k := range []int{1, 3} {
				out = append(out, tbats.Config{
					Periods: periods, Harmonics: harmonics(k),
					UseTrend: trend.t, UseDamping: trend.d,
					ARMAP: arma.p, ARMAQ: arma.q,
				})
			}
		}
	}
	return out
}

// warmVec returns the incumbent's optimiser-space seed when warm options
// are set and the candidate is the incumbent champion, nil otherwise. The
// vector is read-only for the optimiser, so concurrent fits may share it.
func (e *Engine) warmVec(label string) []float64 {
	w := e.opt.Warm
	if w == nil || w.ChampionLabel != label || len(w.Params) == 0 {
		return nil
	}
	return w.Params
}

// fit fits candidate c on y and returns it as a LiveModel positioned at
// len(y), with its in-sample AIC. It holds the engine's one family
// switch: scoring fits on the training window, the production forecast on
// the full series. The run cache's shared differenced series and
// regressor designs apply only at its training length. ctx reaches the
// family optimisers, carrying cancellation and the per-candidate fit
// deadline.
func (e *Engine) fit(ctx context.Context, c *CandidateResult, y []float64, an *Analysis, rc *runCache) (*LiveModel, float64, error) {
	lm := &LiveModel{family: candidateFamily(c), level: e.opt.Level, n: len(y)}
	warm := e.warmVec(c.Label)
	var err error
	switch {
	case c.tbatsCfg != nil:
		if lm.tbats, err = tbats.Fit(*c.tbatsCfg, y, tbats.FitOptions{Ctx: ctx, Obs: e.opt.Obs, WarmStart: warm}); err != nil {
			return nil, math.NaN(), err
		}
		return lm, lm.tbats.AIC, nil
	case c.isETS:
		if lm.ets, err = ets.Fit(c.etsKind, y, ets.FitOptions{Period: an.Period, Ctx: ctx, Obs: e.opt.Obs, WarmStart: warm}); err != nil {
			return nil, math.NaN(), err
		}
		return lm, lm.ets.AIC, nil
	}
	if lm.regs, err = rc.regsFor(e, *c, an, len(y)); err != nil {
		return nil, math.NaN(), err
	}
	var prediff []float64
	if lm.regs.Empty() {
		prediff = rc.prediffFor(c.cand.Spec, len(y))
	}
	ws := rc.workspace()
	defer rc.release(ws)
	if lm.arima, err = arima.Fit(c.cand.Spec, y, lm.regs.SliceTrain(len(y)), arima.FitOptions{
		Ctx: ctx, Obs: e.opt.Obs, Workspace: ws, PrediffedY: prediff, WarmStart: warm,
	}); err != nil {
		return nil, math.NaN(), err
	}
	return lm, lm.arima.AIC, nil
}

// regressorsFor materialises the exogenous design for a candidate.
func (e *Engine) regressorsFor(c CandidateResult, an *Analysis, n int) (*Regressors, error) {
	var parts []*Regressors
	if c.cand.UseExog && !e.opt.DisableExog {
		parts = append(parts, ShockRegressors(an.Shocks, max(an.Period, 2), n))
	}
	if c.cand.UseFourier && !e.opt.DisableFourier && len(an.ExtraPeriods) > 0 {
		k := c.fourierK
		if k <= 0 {
			k = 1
		}
		fr, err := FourierRegressors(an.ExtraPeriods, k, n)
		if err != nil {
			return nil, err
		}
		parts = append(parts, fr)
	}
	return Merge(parts...), nil
}
