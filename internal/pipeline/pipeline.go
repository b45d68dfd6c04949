// Package pipeline is the serve loop of §5 as one type: the Figure-4
// engine trains a champion per repository series, and each completed
// hour is scored, refit on staleness, checked against the capacity rules
// and sized by the planner. Both feeds of `capplan serve` (simulated
// replay and remote-write ingest) only decide when to call Train and Step.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/timeseries"
)

// Config assembles a Pipeline.
type Config struct {
	// Engine configures the fleet training and every refit.
	Engine core.Options
	// TrainWindow is the most history a refit reads back from the clock.
	TrainWindow time.Duration
	// Stale is the model store's validity policy.
	Stale core.StalePolicy
	// Monitor tunes the monitor; its Store, Refit, Advance, Inventory
	// and Obs fields are the pipeline's own and are overwritten.
	Monitor monitor.Config
	// Plan, when non-nil, runs the capacity planner at the end of Step.
	Plan *planner.Policy
	// SelfScrape records the pipeline's own metrics as forecast targets
	// under monitor.DefaultSelfTarget, one sample per Step; SelfTrain is
	// the hours of them a self target needs before its first champion
	// (0 = scrape but never train).
	SelfScrape bool
	SelfTrain  int
	// Obs receives logs, metrics and spans. nil disables.
	Obs *obs.Observer
}

// Pipeline owns the serve loop's state: the model store, the monitor,
// the optional planner, the self-scraper and the simulated clock every
// age check and refit window follows. Call Train and Step from one
// goroutine; the store, monitor and handlers are safe for concurrent use.
type Pipeline struct {
	cfg   Config
	o     *obs.Observer
	store *core.ModelStore
	mon   *monitor.Monitor
	plan  *planner.Planner

	// clock (simulated Unix seconds) and repo are atomic because HTTP
	// handlers read them concurrently with Step; repo is attached after
	// construction because the replay builds its history once /healthz
	// is already up.
	clock   atomic.Int64
	repo    atomic.Pointer[metricstore.Store]
	backups []planner.BackupInfo
	scraper *monitor.SelfScraper
	// start is the training window's first hour: no refit reads before it.
	start time.Time
}

// New validates cfg and builds a Pipeline with no repository attached.
func New(cfg Config) (*Pipeline, error) {
	p := &Pipeline{cfg: cfg, o: cfg.Obs}
	p.cfg.Engine.Obs = cfg.Obs
	p.store = core.NewModelStore(cfg.Stale)
	p.store.SetObserver(cfg.Obs)
	p.store.SetClock(p.Now)
	mc := cfg.Monitor
	mc.Store, mc.Refit, mc.Advance, mc.Inventory, mc.Obs = p.store, p.refit, p.advance, p.inventory, cfg.Obs
	var err error
	if p.mon, err = monitor.New(mc); err != nil {
		return nil, err
	}
	if cfg.Plan != nil {
		if p.plan, err = planner.New(*cfg.Plan, cfg.Obs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Attach hands the pipeline its repository, and the backup schedule the
// planner sizes around (nil when unknown). Call it once, before Train.
func (p *Pipeline) Attach(repo *metricstore.Store, backups []planner.BackupInfo) {
	p.repo.Store(repo)
	p.backups = backups
	if p.cfg.SelfScrape {
		p.scraper = monitor.NewSelfScraper(repo, p.o, "")
	}
}

// Store holds every champion.
func (p *Pipeline) Store() *core.ModelStore { return p.store }

// Monitor scores, refits and alerts on the champions.
func (p *Pipeline) Monitor() *monitor.Monitor { return p.mon }

// Now is the simulated clock: the end of the last trained or stepped hour.
func (p *Pipeline) Now() time.Time { return time.Unix(p.clock.Load(), 0).UTC() }

// Handlers are the monitor's JSON endpoints plus, with a planner, its own.
func (p *Pipeline) Handlers() map[string]http.Handler {
	h := p.mon.Handlers()
	if p.plan != nil {
		h[planner.PlanPath] = planner.Handler(p.plan)
	}
	return h
}

// Train runs the engine over every repository series on [from, to) and
// snapshots each champion's forecast into the repository. It moves the
// clock to `to`; from bounds every later refit window. A canceled run
// returns its partial result with nothing snapshotted.
func (p *Pipeline) Train(ctx context.Context, from, to time.Time) (*core.FleetResult, error) {
	repo := p.repo.Load()
	p.start = from
	p.clock.Store(to.Unix())
	res, err := core.RunFleet(ctx, repo, from, to, core.FleetOptions{
		Engine: p.cfg.Engine,
		Freq:   timeseries.Hourly,
		Store:  p.store,
		Obs:    p.o,
	})
	if err != nil || res.Canceled {
		return res, err
	}
	for _, key := range p.store.Keys() {
		sm, _ := p.store.Peek(key)
		if k, ok := metricstore.ParseKey(key); ok && sm != nil && sm.Result != nil {
			snapshotForecast(repo, k, sm.Result, sm.FittedAt)
		}
	}
	return res, nil
}

// Step runs the completed hour [from, from+1h), whose samples are
// already in the repository, through the loop in order: self-scrape,
// clock, observe every series (scoring, refits, advances), train any
// self target with enough history, evaluate alerts, plan.
func (p *Pipeline) Step(ctx context.Context, from time.Time) {
	next := from.Add(time.Hour)
	if p.scraper != nil {
		p.scraper.Sample(from) // lands in the bucket observe is about to score
	}
	p.clock.Store(next.Unix())
	p.observe(ctx, from, next)
	p.trainSelf(ctx)
	p.mon.EvaluateAlerts(next)
	p.planStep(next)
}

// observe feeds the monitor every series' actual for [from, to),
// skipping empty and gap buckets. An observation of remotely written
// samples continues the batch's trace, so push→store→observe→refit
// shares one trace ID across both processes.
func (p *Pipeline) observe(ctx context.Context, from, to time.Time) {
	repo := p.repo.Load()
	for _, k := range repo.Keys() {
		ser, err := repo.Series(k, timeseries.Hourly, from, to)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			continue
		}
		octx := ctx
		if tp := repo.LastTrace(k); tp != "" {
			if sc, perr := obs.ParseTraceParent(tp); perr == nil {
				octx = obs.ContextWithRemote(ctx, sc)
			}
		}
		p.mon.ObserveActual(octx, k.String(), from, ser.Values[0])
	}
}

// refit re-learns a champion from the freshest repository window. A
// warm request seeds the engine with the stored champion's parameters
// and prior candidate scores; with nothing stored the run goes cold.
func (p *Pipeline) refit(ctx context.Context, key string, warm bool) (*core.Result, error) {
	k, ok := metricstore.ParseKey(key)
	if !ok {
		return nil, fmt.Errorf("serve: malformed key %q", key)
	}
	repo := p.repo.Load()
	to := p.Now()
	from := to.Add(-p.cfg.TrainWindow)
	if from.Before(p.start) {
		from = p.start
	}
	// A series that began mid-serve (the self targets do) is clamped to
	// its own first sample, or the window would open with a NaN prefix
	// no model can fit.
	if f, _, ok := repo.TimeRange(k); ok && from.Before(f) {
		from = f
	}
	ser, err := repo.Series(k, timeseries.Hourly, from, to)
	if err != nil {
		return nil, err
	}
	opts := p.cfg.Engine
	if warm {
		if sm, _ := p.store.Peek(key); sm != nil && sm.Result != nil {
			opts.Warm = core.WarmFromResult(sm.Result)
		}
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx, ser)
	if err == nil {
		snapshotForecast(repo, k, res, to)
	}
	return res, err
}

// advance rolls a horizon-exhausted champion forward instead of
// refitting: the hours since the forecast origin fold into the live
// model's state. Any gap (missing samples, no live model) returns an
// error and the monitor falls back to a real refit.
func (p *Pipeline) advance(_ context.Context, key string, at time.Time) (*core.Result, error) {
	sm, _ := p.store.Peek(key)
	if sm == nil || sm.Result == nil {
		return nil, fmt.Errorf("serve: no stored model for %q", key)
	}
	if sm.Result.Live == nil || sm.Result.Forecast == nil {
		return nil, fmt.Errorf("serve: stored model for %q has no live state", key)
	}
	k, ok := metricstore.ParseKey(key)
	if !ok {
		return nil, fmt.Errorf("serve: malformed key %q", key)
	}
	repo := p.repo.Load()
	fc := sm.Result.Forecast
	// Fold in every completed bucket from the forecast origin through
	// the hour that just exhausted it.
	ser, err := repo.Series(k, fc.Freq, fc.Start, at.Add(fc.Freq.Step()))
	if err != nil {
		return nil, err
	}
	if ser.Len() == 0 {
		return nil, fmt.Errorf("serve: no observations to advance %q over", key)
	}
	if slices.ContainsFunc(ser.Values, math.IsNaN) {
		return nil, fmt.Errorf("serve: gap in %q since forecast origin", key)
	}
	res, err := sm.Result.Advanced(ser.Values)
	if err != nil {
		return nil, err
	}
	if !p.store.ReplaceResult(key, res) {
		return nil, fmt.Errorf("serve: stored model for %q vanished mid-advance", key)
	}
	snapshotForecast(repo, k, res, p.Now())
	return res, nil
}

// inventory lists every key the pipeline models, for the targets endpoint.
func (p *Pipeline) inventory() []string {
	var keys []string
	if r := p.repo.Load(); r != nil {
		for _, k := range r.Keys() {
			keys = append(keys, k.String())
		}
	}
	if p.cfg.SelfScrape {
		// Listed explicitly so the self targets show as warming on
		// /api/v1/targets before their first scrape lands.
		for _, sk := range monitor.SelfKeys("") {
			if !slices.Contains(keys, sk) {
				keys = append(keys, sk)
			}
		}
	}
	return keys
}

// trainSelf gives each self series its first champion once SelfTrain
// hours of it have been scraped; from then on the monitor refits it
// like any other target.
func (p *Pipeline) trainSelf(ctx context.Context) {
	if p.scraper == nil || p.cfg.SelfTrain <= 0 || ctx.Err() != nil {
		return
	}
	repo := p.repo.Load()
	for _, key := range monitor.SelfKeys("") {
		if _, ok := p.store.Peek(key); ok {
			continue
		}
		k, _ := metricstore.ParseKey(key)
		f, l, ok := repo.TimeRange(k)
		if !ok || CoveredHours(f, l) < p.cfg.SelfTrain {
			continue
		}
		res, err := p.refit(ctx, key, false)
		if err != nil {
			// Early self series are often near-constant; retry next hour.
			p.o.Debug("self target not yet trainable", "key", key, "err", err)
			continue
		}
		p.store.Put(key, res)
		p.o.Info("self target trained", "key", key, "champion", res.Champion.Label,
			"hours", CoveredHours(f, l))
	}
}

// planStep folds the champions' horizon forecasts into a cluster demand
// curve, sizes the fleet under the headroom policy, and drives the
// recommendation through the alerter (ignored, it escalates to firing).
func (p *Pipeline) planStep(now time.Time) {
	if p.plan == nil {
		return
	}
	pol := p.plan.Policy()
	var fcs []planner.Forecast
	var names []string
	for _, key := range p.store.Keys() {
		// The self target is pipeline telemetry, not database capacity.
		k, ok := metricstore.ParseKey(key)
		if !ok || k.Target == monitor.DefaultSelfTarget || k.Metric != pol.Metric {
			continue
		}
		sm, _ := p.store.Peek(key)
		if sm == nil || sm.Result == nil || sm.Result.Forecast == nil {
			continue
		}
		fc := sm.Result.Forecast
		fcs = append(fcs, planner.Forecast{Key: key, Start: fc.Start, Step: fc.Freq.Step(), Mean: fc.Mean, Upper: fc.Upper})
		names = append(names, k.Target)
	}
	if len(fcs) == 0 {
		return
	}
	sort.Strings(names)
	// The last completed hour's actual per instance feeds rebalance
	// detection; a missing observation disables it for the cycle.
	var loads []float64
	repo := p.repo.Load()
	for _, t := range names {
		ser, err := repo.Series(metricstore.Key{Target: t, Metric: pol.Metric}, timeseries.Hourly, now.Add(-time.Hour), now)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			loads = nil
			break
		}
		loads = append(loads, ser.Values[0])
	}
	st := planner.ClusterState{Target: "cluster", Instances: len(names), NodeLoad: loads, Backups: p.backups}
	p.plan.Plan(now, st, planner.AggregateDemand(now, pol.HorizonHours, 0, fcs))
	if rec, ok := p.plan.Recommendation(); ok {
		p.mon.ObserveCondition(st.Target, planner.GrowCondition, now,
			rec.Recommended > rec.Instances, float64(rec.Recommended), rec.PeakAt)
		p.mon.ObserveCondition(st.Target, planner.ShrinkCondition, now,
			rec.Recommended < rec.Instances, float64(rec.Recommended), rec.PeakAt)
	}
}

// snapshotForecast persists res's production forecast next to k's
// samples, so calibration scoring can resume against it after a restart.
func snapshotForecast(repo *metricstore.Store, k metricstore.Key, res *core.Result, fittedAt time.Time) {
	fc := res.Forecast
	if fc == nil || len(fc.Mean) == 0 {
		return
	}
	repo.PutForecast(metricstore.ForecastSnapshot{
		Key: k, Start: fc.Start, Step: fc.Freq.Step(), Level: fc.Level,
		Mean: fc.Mean, Lower: fc.Lower, Upper: fc.Upper, SE: fc.SE,
		FittedAt: fittedAt,
	})
}

// CoveredHours counts the hourly buckets the closed sample range
// [first, last] touches when first sits on a bucket boundary.
func CoveredHours(first, last time.Time) int {
	if last.Before(first) {
		return 0
	}
	return int(last.Sub(first)/time.Hour) + 1
}
