// Package experiments is the reproduction harness: one entry per table
// and figure of the paper's evaluation (§6–§7). Each entry rebuilds the
// workload with the simulator substrate, runs the learning engine, and
// returns the same rows/series the paper reports, so
// `go test -bench` and cmd/benchtables can regenerate the evaluation.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/metricstore"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Kind selects an experiment workload.
type Kind string

const (
	// OLAP is Experiment One (§7.1).
	OLAP Kind = "olap"
	// OLTP is Experiment Two (§7.2).
	OLTP Kind = "oltp"
)

// Dataset is a fully collected experiment: the cluster, the repository
// filled by the agent, and the aggregated hourly series per
// instance/metric.
type Dataset struct {
	Kind    Kind
	Cluster *dbsim.Cluster
	Store   *metricstore.Store
	Start   time.Time
	End     time.Time
	// Series maps "instance/metric" (e.g. "cdbm011/cpu") to the
	// interpolated hourly series.
	Series map[string]*timeseries.Series
}

// Options tunes dataset construction and engine runs.
type Options struct {
	// Days of simulated collection; 0 → 42 (to fill Table 1's 1008
	// hourly observations).
	Days int
	// Seed drives the simulator and fault injection.
	Seed uint64
	// AgentFailureRate introduces gaps (0.01 default-ish; 0 keeps 0).
	AgentFailureRate float64
	// MaxCandidates caps each engine grid (0 → 12 — enough for the
	// result shape; raise for a deeper sweep).
	MaxCandidates int
	// Workers for parallel model fitting (0 → GOMAXPROCS).
	Workers int
	// Obs receives logs, spans and metrics from the agent, repository
	// and every engine run (nil disables).
	Obs *obs.Observer
}

func (o Options) days() int {
	if o.Days <= 0 {
		return 42
	}
	return o.Days
}

func (o Options) maxCandidates() int {
	if o.MaxCandidates <= 0 {
		return 12
	}
	return o.MaxCandidates
}

// Build simulates the experiment: cluster → agent (15-minute polls) →
// repository → hourly aggregation → interpolation.
func Build(kind Kind, opt Options) (*Dataset, error) {
	var cfg dbsim.Config
	switch kind {
	case OLAP:
		cfg = workload.OLAPConfig(opt.Seed)
	case OLTP:
		cfg = workload.OLTPConfig(opt.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown kind %q", kind)
	}
	cluster, err := dbsim.New(cfg)
	if err != nil {
		return nil, err
	}
	store := metricstore.New()
	store.SetObserver(opt.Obs)
	ag, err := agent.New(agent.Config{
		Interval:    15 * time.Minute,
		FailureRate: opt.AgentFailureRate,
		Seed:        opt.Seed + 1,
		Obs:         opt.Obs,
	}, cluster, store)
	if err != nil {
		return nil, err
	}
	end := cfg.Start.Add(time.Duration(opt.days()) * 24 * time.Hour)
	if _, _, err := ag.Collect(cfg.Start, end); err != nil {
		return nil, err
	}
	ds := &Dataset{
		Kind: kind, Cluster: cluster, Store: store,
		Start: cfg.Start, End: end,
		Series: make(map[string]*timeseries.Series),
	}
	for _, name := range cluster.Instances() {
		for _, m := range dbsim.AllMetrics {
			key := metricstore.Key{Target: name, Metric: m.String()}
			ser, err := store.Series(key, timeseries.Hourly, cfg.Start, end)
			if err != nil {
				return nil, err
			}
			if _, err := ser.Interpolate(); err != nil {
				return nil, err
			}
			ds.Series[key.String()] = ser
		}
	}
	return ds, nil
}

// Family is one of the paper's three model families in Table 2.
type Family string

const (
	// FamilyARIMA is the non-seasonal baseline.
	FamilyARIMA Family = "ARIMA"
	// FamilySARIMAX is seasonal ARIMA without exogenous features.
	FamilySARIMAX Family = "SARIMAX"
	// FamilySARIMAXFFTExog is SARIMAX with exogenous shocks and Fourier
	// terms — the paper's headline configuration.
	FamilySARIMAXFFTExog Family = "SARIMAX FFT Exogenous"
)

// Families lists the Table 2 model families in display order.
var Families = []Family{FamilyARIMA, FamilySARIMAX, FamilySARIMAXFFTExog}

// engineFor maps a family to engine options.
func engineFor(f Family, opt Options) (*core.Engine, error) {
	base := core.Options{
		Level:         0.95,
		Workers:       opt.Workers,
		MaxCandidates: opt.maxCandidates(),
		Obs:           opt.Obs,
	}
	switch f {
	case FamilyARIMA:
		base.Technique = core.TechniqueARIMA
	case FamilySARIMAX:
		base.Technique = core.TechniqueSARIMAX
		base.DisableExog = true
		base.DisableFourier = true
	case FamilySARIMAXFFTExog:
		base.Technique = core.TechniqueSARIMAX
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", f)
	}
	return core.NewEngine(base)
}

// Table2Row is one row of the paper's Table 2: family, champion model,
// metric, instance and the accuracy triple.
type Table2Row struct {
	Family   Family
	Champion string
	Metric   string
	Instance string
	RMSE     float64
	MAPE     float64
	MAPA     float64
}

// Table2 reproduces Table 2(a) (OLAP) or 2(b) (OLTP): for every
// instance × metric it runs the three families and reports hold-out
// accuracy. ctx cancels the sweep between and inside engine runs.
func Table2(ctx context.Context, ds *Dataset, opt Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, metric := range dbsim.AllMetrics {
		for _, inst := range ds.Cluster.Instances() {
			key := metricstore.Key{Target: inst, Metric: metric.String()}.String()
			ser, ok := ds.Series[key]
			if !ok {
				return nil, fmt.Errorf("experiments: missing series %q", key)
			}
			for _, fam := range Families {
				eng, err := engineFor(fam, opt)
				if err != nil {
					return nil, err
				}
				res, err := eng.Run(ctx, ser)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s on %s: %w", fam, key, err)
				}
				rows = append(rows, Table2Row{
					Family:   fam,
					Champion: res.Champion.Label,
					Metric:   metric.String(),
					Instance: inst,
					RMSE:     res.TestScore.RMSE,
					MAPE:     res.TestScore.MAPE,
					MAPA:     res.TestScore.MAPA,
				})
			}
		}
	}
	return rows, nil
}

// PredictionSeries is one prediction chart (Figures 6 and 7): the recent
// training tail ("the shaded area … used by the algorithm for learning"),
// the hold-out actuals, and the champion's forecast with error bars
// ("the yellow section").
type PredictionSeries struct {
	Key       string
	Family    Family
	Champion  string
	TrainTail []float64
	Actual    []float64
	Forecast  []float64
	RMSE      float64
}

// Figure6 reproduces the Experiment One prediction charts: CPU on
// cdbm011, one chart per family (ARIMA vs SARIMAX vs SARIMAX+FFT+Exog).
func Figure6(ctx context.Context, ds *Dataset, opt Options) ([]PredictionSeries, error) {
	if ds.Kind != OLAP {
		return nil, fmt.Errorf("experiments: Figure 6 needs the OLAP dataset")
	}
	return predictionCharts(ctx, ds, opt, []string{"cdbm011/cpu"}, Families)
}

// Figure7 reproduces the Experiment Two prediction charts: SARIMAX with
// Exogenous and Fourier terms across CPU, memory and logical IOPS on
// cdbm011.
func Figure7(ctx context.Context, ds *Dataset, opt Options) ([]PredictionSeries, error) {
	if ds.Kind != OLTP {
		return nil, fmt.Errorf("experiments: Figure 7 needs the OLTP dataset")
	}
	keys := []string{"cdbm011/cpu", "cdbm011/memory", "cdbm011/logical_iops"}
	return predictionCharts(ctx, ds, opt, keys, []Family{FamilySARIMAXFFTExog})
}

func predictionCharts(ctx context.Context, ds *Dataset, opt Options, keys []string, fams []Family) ([]PredictionSeries, error) {
	var out []PredictionSeries
	for _, key := range keys {
		ser, ok := ds.Series[key]
		if !ok {
			return nil, fmt.Errorf("experiments: missing series %q", key)
		}
		for _, fam := range fams {
			eng, err := engineFor(fam, opt)
			if err != nil {
				return nil, err
			}
			res, err := eng.Run(ctx, ser)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", fam, key, err)
			}
			tail := 96 // four days of context
			if res.TrainLen < tail {
				tail = res.TrainLen
			}
			full := ser.Values
			trainEnd := len(full) - res.TestLen
			out = append(out, PredictionSeries{
				Key:       key,
				Family:    fam,
				Champion:  res.Champion.Label,
				TrainTail: append([]float64(nil), full[trainEnd-tail:trainEnd]...),
				Actual:    res.TestActual,
				Forecast:  res.TestForecast,
				RMSE:      res.TestScore.RMSE,
			})
		}
	}
	return out, nil
}
