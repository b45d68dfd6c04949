package main

// serve.go drives the `capplan serve -ingest -tick 0` hour loop through
// the public API of each module. The Refit/Advance adapters and the plan
// step reproduce the refit, advance and planStep closures of
// internal/cli/serve.go step by step, so each layer can be timed from
// outside.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/timeseries"
)

// Serve defaults (capplan serve's flag defaults, planner on).
const (
	maxAge         = 7 * 24 * time.Hour
	degradeFactor  = 2.0
	coldRefitEvery = 24
	cpuThreshold   = 80
)

func engineOptions() core.Options {
	return core.Options{
		Technique: core.TechniqueSARIMAX, Horizon: 24, MaxCandidates: 8,
		FitTimeout: 30 * time.Second,
	}
}

// server is one serve pass: the repository, model store, monitor and
// planner, plus the adapters the monitor calls back into.
type server struct {
	*pass
	in          *inputs
	trainWindow time.Duration
	store       *core.ModelStore
	mon         *monitor.Monitor
	plan        *planner.Planner
	simClock    atomic.Int64

	// Per-observation scratch the adapters fill in.
	inAdapter     time.Duration
	refitCalled   bool
	advanceCalled bool
	advanced      bool
}

func (s *server) now() time.Time { return time.Unix(s.simClock.Load(), 0).UTC() }

// servePass trains the fleet on the history and replays every hour.
func servePass(ctx context.Context, in *inputs, opt passOpts) (_ *passStats, err error) {
	s := &server{in: in, trainWindow: in.trainEnd.Sub(in.start)}
	s.store = core.NewModelStore(core.StalePolicy{MaxAge: maxAge, DegradeFactor: degradeFactor})
	s.store.SetClock(s.now)
	heapBase := liveHeap()

	began := time.Now()
	p, err := openPass(opt)
	if err != nil {
		return nil, err
	}
	defer p.closeOnError(&err)
	s.pass = p
	s.store.SetObserver(p.o)
	if s.mon, err = monitor.New(monitor.Config{
		Store:          s.store,
		Window:         24,
		Rules:          []monitor.Rule{{Metric: "cpu", Threshold: cpuThreshold, WithinHours: 24}},
		PendingTicks:   2,
		ResolveTicks:   2,
		Calibration:    monitor.CalibrationConfig{Window: 168},
		Drift:          monitor.DriftConfig{Delta: 0.25, Lambda: 12},
		Refit:          s.refit,
		Advance:        s.advance,
		ColdRefitEvery: coldRefitEvery,
		Inventory: func() []string {
			var keys []string
			for _, k := range s.repo.Keys() {
				keys = append(keys, k.String())
			}
			return keys
		},
		Obs: p.o,
	}); err != nil {
		return nil, err
	}
	if s.plan, err = planner.New(planner.Policy{Metric: "cpu", Headroom: 0.3, HorizonHours: 24, MaxInstances: 16}, p.o); err != nil {
		return nil, err
	}
	if err := s.setup(ctx); err != nil {
		return nil, err
	}
	p.st.setup = time.Since(began)
	p.setupEnd = time.Now()
	p.st.champions = s.championLabels()

	setupBusy := p.st.layerBusy()
	simNow := in.trainEnd
	for _, hr := range in.replay {
		next := simNow.Add(time.Hour)
		s.step(ctx, hr, simNow, next)
		simNow = next
	}
	p.st.unaccounted = p.st.hourWall.sum() - (p.st.layerBusy() - setupBusy)
	s.checkChampions()
	s.st.gridSkipped = p.o.Registry().CounterValue("refit_grid_skipped_total")
	s.st.warmFallbacks = p.o.Registry().CounterValue("refit_warm_fallbacks_total")
	s.st.heapBytes = liveHeap() - heapBase
	if err := p.restart(); err != nil {
		return nil, err
	}
	return p.st, p.finish()
}

// setup is serve's path to /readyz: the history arrives over remote
// write, the fleet trains, and every champion's forecast is snapshotted.
func (s *server) setup(ctx context.Context) error {
	sp := s.o.StartSpan("bench.setup")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	for _, hr := range s.in.history {
		for b, body := range hr.bodies {
			s.post(body, hr.samples[b], true)
		}
	}
	s.simClock.Store(s.in.trainEnd.Unix())
	began := time.Now()
	res, err := core.RunFleet(ctx, s.repo, s.in.start, s.in.trainEnd, core.FleetOptions{
		Engine: engineOptions(),
		Freq:   timeseries.Hourly,
		Store:  s.store,
		Obs:    s.o,
	})
	if err != nil {
		return err
	}
	s.st.fleetTrain = time.Since(began)
	for _, it := range res.Items {
		s.st.fleetTarget.add(it.Elapsed)
	}
	s.st.fleetTrained, s.st.fleetFailed = res.Trained, res.Failed
	for _, key := range s.store.Keys() {
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
			s.snapshot(ctx, parseKey(key), sm.Result, sm.FittedAt)
		}
	}
	return nil
}

// step is one replayed hour: each cluster POSTs the hour's samples, then
// every target is observed, alerts and the plan are evaluated, and
// /metrics is scraped.
func (s *server) step(ctx context.Context, hr hour, from, to time.Time) {
	began := time.Now()
	accepted := make([]time.Time, len(hr.bodies))
	for b, body := range hr.bodies {
		accepted[b] = s.post(body, hr.samples[b], false)
	}
	s.simClock.Store(to.Unix())
	s.observeHour(ctx, hr, accepted, from, to)

	sp := s.o.StartSpan("bench.alerts")
	t := time.Now()
	s.mon.EvaluateAlerts(to)
	s.st.alerts.add(time.Since(t))
	sp.End()

	s.planStep(to)
	s.scrape(ctx)
	s.st.hourWall.add(time.Since(began))
}

// observeHour feeds the monitor every series' actual for [from, to), as
// serve's observeHour does, scoring the stored forecast first.
func (s *server) observeHour(ctx context.Context, hr hour, accepted []time.Time, from, to time.Time) {
	for _, k := range s.storeKeys() {
		key := k.String()
		// One trace per target-hour: the read, the observation and any
		// advance or refit it triggers nest under this span.
		sp := s.o.StartSpan("bench.observe")
		sp.Set("key", key)
		octx := obs.ContextWithSpan(ctx, sp)
		ser, err := s.series(octx, k, timeseries.Hourly, from, to)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			sp.End()
			continue
		}
		actual := ser.Values[0]
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
			if f, ok := forecastAt(sm.Result.Forecast, from); ok {
				s.st.apeSum += math.Abs(actual-f) / math.Abs(actual)
				s.st.apeN++
			}
		}
		s.inAdapter, s.refitCalled, s.advanceCalled, s.advanced = 0, false, false, false
		t := time.Now()
		s.mon.ObserveActual(octx, key, from, actual)
		done := time.Now()
		sp.End()
		own := done.Sub(t)
		s.st.observeSelf.add(own - s.inAdapter)
		if b := hr.batchOf[s.in.clusterOf[k.Target]]; b < len(accepted) {
			fresh := done.Sub(accepted[b])
			s.st.fresh.add(fresh)
			s.st.wait.add(fresh - own)
		}
		s.st.targetHours++
		if s.advanceCalled {
			s.st.exhaustions++
			if !s.advanced {
				s.st.advanceFallbacks++
			}
		}
		if s.refitCalled {
			rec, _ := s.mon.LastRefit(key)
			s.st.reasons[rec.Reason]++
		}
	}
}

// forecastAt is the forecast's point value for the step starting at t.
func forecastAt(fc *core.Prediction, t time.Time) (float64, bool) {
	if fc == nil || t.Before(fc.Start) {
		return 0, false
	}
	i := int(t.Sub(fc.Start) / fc.Freq.Step())
	if i >= len(fc.Mean) || !fc.TimeAt(i).Equal(t) {
		return 0, false
	}
	return fc.Mean[i], true
}

func parseKey(key string) metricstore.Key {
	i := strings.LastIndexByte(key, '/')
	return metricstore.Key{Target: key[:i], Metric: key[i+1:]}
}

// refit is serve's refit closure: re-learn a champion from the freshest
// repository window, warm-started from the stored champion on request,
// and snapshot its forecast.
func (s *server) refit(ctx context.Context, key string, warm bool) (*core.Result, error) {
	began := time.Now()
	s.refitCalled = true
	defer func() { s.inAdapter += time.Since(began) }()
	k := parseKey(key)
	to := s.now()
	from := to.Add(-s.trainWindow)
	if from.Before(s.in.start) {
		from = s.in.start
	}
	if f, _, ok := s.repo.TimeRange(k); ok && from.Before(f) {
		from = f
	}
	ser, err := s.series(ctx, k, timeseries.Hourly, from, to)
	if err != nil {
		s.st.refitErrors++
		return nil, err
	}
	opts := engineOptions()
	opts.Obs = s.o
	incumbent := ""
	if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
		incumbent = sm.Result.Champion.Label
		if warm {
			opts.Warm = core.WarmFromResult(sm.Result)
		}
	}
	if warm {
		s.st.warmRequested++
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		s.st.refitErrors++
		return nil, err
	}
	t := time.Now()
	res, err := eng.Run(ctx, ser)
	d := time.Since(t)
	if err != nil {
		s.st.refitErrors++
		return nil, err
	}
	if res.WarmStarted {
		s.st.refitWarm.add(d)
		s.st.warmHonoured++
	} else {
		s.st.refitCold.add(d)
	}
	if res.Champion.Label == incumbent {
		s.st.championKept++
	}
	s.snapshot(ctx, k, res, to)
	return res, nil
}

// advance is serve's advance closure: fold the hours since the forecast
// origin into the live model and regenerate the forecast. An error sends
// the monitor to a refit.
func (s *server) advance(ctx context.Context, key string, at time.Time) (*core.Result, error) {
	began := time.Now()
	s.advanceCalled = true
	defer func() { s.inAdapter += time.Since(began) }()
	sm, _ := s.store.Peek(key)
	if sm == nil || sm.Result == nil {
		return nil, fmt.Errorf("perfbench: no stored model for %q", key)
	}
	if sm.Result.Live == nil || sm.Result.Forecast == nil {
		return nil, fmt.Errorf("perfbench: stored model for %q has no live state", key)
	}
	k := parseKey(key)
	fc := sm.Result.Forecast
	ser, err := s.series(ctx, k, fc.Freq, fc.Start, at.Add(fc.Freq.Step()))
	if err != nil {
		return nil, err
	}
	if ser.Len() == 0 {
		return nil, fmt.Errorf("perfbench: no observations to advance %q over", key)
	}
	for _, v := range ser.Values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("perfbench: gap in %q since forecast origin", key)
		}
	}
	sp := s.o.StartSpanFrom(ctx, "bench.advanced")
	t := time.Now()
	res, err := sm.Result.Advanced(ser.Values)
	s.st.advance.add(time.Since(t))
	sp.End()
	if err != nil {
		return nil, err
	}
	if !s.store.ReplaceResult(key, res) {
		return nil, fmt.Errorf("perfbench: stored model for %q vanished mid-advance", key)
	}
	s.snapshot(ctx, k, res, s.now())
	s.advanced = true
	return res, nil
}

// snapshot persists res's production forecast (serve's snapshotForecast).
func (s *server) snapshot(ctx context.Context, k metricstore.Key, res *core.Result, fittedAt time.Time) {
	fc := res.Forecast
	if fc == nil || len(fc.Mean) == 0 {
		return
	}
	sp := s.o.StartSpanFrom(ctx, "bench.put_forecast")
	t := time.Now()
	s.repo.PutForecast(metricstore.ForecastSnapshot{
		Key: k, Start: fc.Start, Step: fc.Freq.Step(), Level: fc.Level,
		Mean: fc.Mean, Lower: fc.Lower, Upper: fc.Upper, SE: fc.SE,
		FittedAt: fittedAt,
	})
	s.st.putForecast.add(time.Since(t))
	sp.End()
}

// planStep is serve's planStep: fold every CPU champion's horizon into
// one cluster demand curve, size it, and drive the plan conditions
// through the alerter. Its Store.Series reads count as metricstore time.
func (s *server) planStep(now time.Time) {
	sp := s.o.StartSpan("bench.plan")
	defer sp.End()
	ctx := obs.ContextWithSpan(context.Background(), sp)
	began, reads := time.Now(), s.seriesTotal
	defer func() { s.st.plan.add(time.Since(began) - (s.seriesTotal - reads)) }()
	pol := s.plan.Policy()
	suffix := "/" + pol.Metric
	var fcs []planner.Forecast
	var names []string
	for _, key := range s.store.Keys() {
		if !strings.HasSuffix(key, suffix) {
			continue
		}
		sm, _ := s.store.Peek(key)
		if sm == nil || sm.Result == nil || sm.Result.Forecast == nil {
			continue
		}
		fc := sm.Result.Forecast
		fcs = append(fcs, planner.Forecast{
			Key: key, Start: fc.Start, Step: fc.Freq.Step(),
			Mean: fc.Mean, Upper: fc.Upper,
		})
		names = append(names, strings.TrimSuffix(key, suffix))
	}
	if len(fcs) == 0 {
		return
	}
	sort.Strings(names)
	var loads []float64
	for _, t := range names {
		ser, err := s.series(ctx, metricstore.Key{Target: t, Metric: pol.Metric}, timeseries.Hourly, now.Add(-time.Hour), now)
		if err != nil || ser.Len() == 0 || math.IsNaN(ser.Values[0]) {
			loads = nil
			break
		}
		loads = append(loads, ser.Values[0])
	}
	st := planner.ClusterState{
		Target: "cluster", Instances: len(names),
		NodeLoad: loads, Backups: s.in.backups,
	}
	s.plan.Plan(now, st, planner.AggregateDemand(now, pol.HorizonHours, 0, fcs))
	if rec, ok := s.plan.Recommendation(); ok {
		s.mon.ObserveCondition(st.Target, planner.GrowCondition, now,
			rec.Recommended > rec.Instances, float64(rec.Recommended), rec.PeakAt)
		s.mon.ObserveCondition(st.Target, planner.ShrinkCondition, now,
			rec.Recommended < rec.Instances, float64(rec.Recommended), rec.PeakAt)
	}
}

// championLabels lists every stored champion, the outcome of training.
func (s *server) championLabels() string {
	keys := s.store.Keys()
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		if sm, _ := s.store.Peek(key); sm != nil && sm.Result != nil {
			fmt.Fprintf(&b, "%s=%s;", key, sm.Result.Champion.Label)
		}
	}
	return b.String()
}

// checkChampions requires every stored champion's forecast to be finite.
func (s *server) checkChampions() {
	keys := s.store.Keys()
	s.st.check(len(keys) > 0, "no champions stored")
	for _, key := range keys {
		sm, _ := s.store.Peek(key)
		ok := sm != nil && sm.Result != nil && sm.Result.Forecast != nil && len(sm.Result.Forecast.Mean) > 0
		if ok {
			fc := sm.Result.Forecast
			ok = allFinite(fc.Mean) && allFinite(fc.Lower) && allFinite(fc.Upper)
		}
		s.st.check(ok, "champion %s: forecast missing or not finite", key)
	}
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
