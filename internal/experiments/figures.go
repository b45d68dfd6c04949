package experiments

import (
	"fmt"
	"math"

	"repro/internal/decompose"
	"repro/internal/metricstore"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Figure1Data reproduces the paper's Figure 1 "Visualising Time Series
// Data": (a) the ACF/PACF correlograms with their confidence band,
// (b) the classical decomposition, (c) the differenced series.
type Figure1Data struct {
	ACF, PACF []float64
	Band      float64
	Trend     []float64
	Seasonal  []float64
	Residual  []float64
	Original  []float64
	Diff1     []float64
}

// Figure1 computes the visualisation pieces from an experiment series
// (the paper uses 30 lags).
func Figure1(ds *Dataset, key string) (*Figure1Data, error) {
	ser, ok := ds.Series[key]
	if !ok {
		return nil, fmt.Errorf("experiments: missing series %q", key)
	}
	y := ser.Values
	d, err := decompose.Classical(y, 24, decompose.Additive)
	if err != nil {
		return nil, err
	}
	return &Figure1Data{
		ACF:      stats.ACF(y, 30),
		PACF:     stats.PACF(y, 30),
		Band:     stats.ConfidenceBand(len(y), 0.95),
		Trend:    d.Trend,
		Seasonal: d.Seasonal,
		Residual: d.Residual,
		Original: append([]float64(nil), y...),
		Diff1:    timeseries.Diff(y, 1),
	}, nil
}

// WorkloadFigure holds the "Key Metrics: Workload Descriptions" chart
// data of Figures 2 (OLAP) and 3 (OLTP): the hourly series for each
// metric on each instance, plus summary statistics.
type WorkloadFigure struct {
	Kind   Kind
	Panels []WorkloadPanel
}

// WorkloadPanel is one subplot.
type WorkloadPanel struct {
	Key    string
	Values []float64
	Mean   float64
	Peak   float64
}

// Figure2And3 extracts the workload-description panels from a dataset:
// Figure 2 when the dataset is OLAP, Figure 3 when OLTP.
func Figure2And3(ds *Dataset) *WorkloadFigure {
	fig := &WorkloadFigure{Kind: ds.Kind}
	for _, inst := range ds.Cluster.Instances() {
		for _, m := range []string{"cpu", "memory", "logical_iops"} {
			key := metricstore.Key{Target: inst, Metric: m}.String()
			ser, ok := ds.Series[key]
			if !ok {
				continue
			}
			peak := math.Inf(-1)
			var sum float64
			for _, v := range ser.Values {
				sum += v
				if v > peak {
					peak = v
				}
			}
			fig.Panels = append(fig.Panels, WorkloadPanel{
				Key:    key,
				Values: append([]float64(nil), ser.Values...),
				Mean:   sum / float64(ser.Len()),
				Peak:   peak,
			})
		}
	}
	return fig
}
