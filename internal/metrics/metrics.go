// Package metrics implements the forecast-accuracy measures the paper
// scores models with (§7: "We tested the accuracy using three methods,
// which are Root Means Squared Error (RMSE), Mean Absolute Percentage
// Error (MAPE) and Mean Absolute Percentage Accuracy (MAPA)") plus the
// standard companions (MAE, ME, sMAPE).
package metrics

import (
	"fmt"
	"math"
)

func check(actual, forecast []float64) {
	if len(actual) != len(forecast) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(actual), len(forecast)))
	}
	if len(actual) == 0 {
		panic("metrics: empty input")
	}
}

// RMSE returns the root mean squared error — the paper's model-selection
// criterion ("The model with the best RMSE is the most accurate").
func RMSE(actual, forecast []float64) float64 {
	check(actual, forecast)
	var ss float64
	for i := range actual {
		d := actual[i] - forecast[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(actual)))
}

// MAE returns the mean absolute error.
func MAE(actual, forecast []float64) float64 {
	check(actual, forecast)
	var s float64
	for i := range actual {
		s += math.Abs(actual[i] - forecast[i])
	}
	return s / float64(len(actual))
}

// ME returns the mean error (bias).
func ME(actual, forecast []float64) float64 {
	check(actual, forecast)
	var s float64
	for i := range actual {
		s += forecast[i] - actual[i]
	}
	return s / float64(len(actual))
}

// MAPE returns the mean absolute percentage error, in percent.
// Observations with actual == 0 are skipped; if every actual is zero the
// result is NaN. Note MAPE explodes when actuals approach zero — the
// paper's Table 2a logical-IOPS MAPEs in the thousands show exactly this,
// which is why model selection uses RMSE.
func MAPE(actual, forecast []float64) float64 {
	check(actual, forecast)
	var s float64
	n := 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs((actual[i] - forecast[i]) / actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * s / float64(n)
}

// MAPA returns the mean absolute percentage accuracy, in percent:
// MAPA = 100 − MAPE, floored at zero. The paper reports it alongside MAPE.
func MAPA(actual, forecast []float64) float64 {
	m := MAPE(actual, forecast)
	if math.IsNaN(m) {
		return math.NaN()
	}
	a := 100 - m
	if a < 0 {
		return 0
	}
	return a
}

// SMAPE returns the symmetric MAPE, in percent, bounded to [0, 200].
func SMAPE(actual, forecast []float64) float64 {
	check(actual, forecast)
	var s float64
	n := 0
	for i := range actual {
		den := (math.Abs(actual[i]) + math.Abs(forecast[i])) / 2
		if den == 0 {
			continue
		}
		s += math.Abs(actual[i]-forecast[i]) / den
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * s / float64(n)
}

// Score bundles the accuracy measures reported for one fitted model, as a
// row of the paper's Table 2.
type Score struct {
	RMSE  float64
	MAE   float64
	MAPE  float64
	MAPA  float64
	SMAPE float64
	ME    float64
}

// Evaluate computes the full score set for a forecast against actuals.
func Evaluate(actual, forecast []float64) Score {
	return Score{
		RMSE:  RMSE(actual, forecast),
		MAE:   MAE(actual, forecast),
		MAPE:  MAPE(actual, forecast),
		MAPA:  MAPA(actual, forecast),
		SMAPE: SMAPE(actual, forecast),
		ME:    ME(actual, forecast),
	}
}

// Better reports whether score a is preferable to b under the paper's
// primary criterion (lower RMSE). NaN RMSEs always lose.
func (a Score) Better(b Score) bool {
	if math.IsNaN(a.RMSE) {
		return false
	}
	if math.IsNaN(b.RMSE) {
		return true
	}
	return a.RMSE < b.RMSE
}
