package core

import (
	"fmt"
	"strings"
)

// Report renders the engine result as a human-readable text block — the
// narrative the paper's §9 wants surfaced to administrators instead of a
// raw chart: what the data looks like, which model won and why, and how
// much to trust the forecast.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Capacity forecast — %s\n", r.SeriesName)
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("=", 20+len(r.SeriesName)))

	fmt.Fprintf(&sb, "technique      : %v branch of the selection flow\n", r.Technique)
	fmt.Fprintf(&sb, "data           : %d train + %d test observations\n", r.TrainLen, r.TestLen)

	an := r.Analysis
	if an != nil {
		fmt.Fprintf(&sb, "stationarity   : ")
		if an.Stationary {
			fmt.Fprintf(&sb, "stationary (ADF %.2f, p=%.3f), d=%d\n", an.ADFStat, an.ADFPValue, an.D)
		} else {
			fmt.Fprintf(&sb, "trending/unit root (ADF %.2f, p=%.3f) → differenced d=%d\n", an.ADFStat, an.ADFPValue, an.D)
		}
		if an.Period > 0 {
			fmt.Fprintf(&sb, "seasonality    : period %d, strength %.2f, D=%d\n", an.Period, an.SeasonalStrength, an.SeasonalD)
		} else {
			fmt.Fprintf(&sb, "seasonality    : none detected\n")
		}
		if len(an.ExtraPeriods) > 0 {
			fmt.Fprintf(&sb, "multi-seasonal : extra periods %v → Fourier terms offered\n", an.ExtraPeriods)
		}
		if len(an.Shocks) > 0 {
			fmt.Fprintf(&sb, "shocks         : %d recurring behaviour(s):", len(an.Shocks))
			for _, sh := range an.Shocks {
				dir := "+"
				if !sh.Positive {
					dir = "-"
				}
				fmt.Fprintf(&sb, " phase %d (%s×%d)", sh.Phase, dir, sh.Occurrences)
			}
			sb.WriteString("\n")
		}
		if an.DiscardedOutliers > 0 {
			fmt.Fprintf(&sb, "outliers       : %d rare event(s) discarded (below the >3-occurrences rule)\n", an.DiscardedOutliers)
		}
		if an.Unstable {
			sb.WriteString("⚠ stability    : system appears in-fault (frequent non-recurring outliers); forecast reliability reduced — consider the manual override\n")
		}
	}

	fmt.Fprintf(&sb, "champion       : %s\n", r.Champion.Label)
	fmt.Fprintf(&sb, "accuracy       : RMSE %.4f | MAPE %.2f%% | MAPA %.2f%%\n",
		r.TestScore.RMSE, r.TestScore.MAPE, r.TestScore.MAPA)
	fmt.Fprintf(&sb, "evaluation     : %d models in %v\n", r.ModelsEvaluated, r.Elapsed.Round(1e6))

	// Runner-up context: how decisive was the win?
	var runnerUp *CandidateResult
	for i := 1; i < len(r.Candidates); i++ {
		if r.Candidates[i].Err == nil {
			runnerUp = &r.Candidates[i]
			break
		}
	}
	if runnerUp != nil && r.TestScore.RMSE > 0 {
		margin := (runnerUp.Score.RMSE - r.TestScore.RMSE) / r.TestScore.RMSE * 100
		fmt.Fprintf(&sb, "runner-up      : %s (RMSE +%.1f%%)\n", runnerUp.Label, margin)
	}

	if d := r.Diagnose(); d != nil {
		if d.Clean {
			fmt.Fprintf(&sb, "diagnostics    : clean (Ljung-Box p=%.3f, Jarque-Bera p=%.3f)\n",
				d.LjungBox.PValue, d.JarqueBera.PValue)
		} else {
			fmt.Fprintf(&sb, "diagnostics    : residual structure remains (Ljung-Box p=%.3f, Jarque-Bera p=%.3f)\n",
				d.LjungBox.PValue, d.JarqueBera.PValue)
		}
	}

	if r.Forecast != nil && len(r.Forecast.Mean) > 0 {
		fc := r.Forecast
		last := len(fc.Mean) - 1
		fmt.Fprintf(&sb, "forecast       : %d steps from %s at %.0f%% interval\n",
			len(fc.Mean), fc.TimeAt(0).Format("2006-01-02 15:04"), fc.Level*100)
		fmt.Fprintf(&sb, "  first step   : %.4g  [%.4g, %.4g]\n", fc.Mean[0], fc.Lower[0], fc.Upper[0])
		fmt.Fprintf(&sb, "  last step    : %.4g  [%.4g, %.4g]\n", fc.Mean[last], fc.Lower[last], fc.Upper[last])
	}
	return sb.String()
}

// String renders a one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %s (RMSE %.4f, %d models, %v)",
		r.SeriesName, r.Champion.Label, r.TestScore.RMSE, r.ModelsEvaluated, r.Elapsed.Round(1e6))
}
