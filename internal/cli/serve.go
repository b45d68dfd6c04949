package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/planner"
)

// CapplanServe runs capplan as a long-running service: train champions
// on simulated history, then replay the agent feed hour by hour while
// the monitor scores live forecast accuracy, invalidates and refits
// degraded champions, and raises capacity-breach alerts. The unified
// observability endpoint serves /healthz, /readyz, /metrics, /trace,
// /alerts, /accuracy and /debug/pprof throughout. ctx is the service
// lifetime: the cmd main wires it to SIGINT/SIGTERM, and cancellation
// reaches every in-flight candidate fit for a prompt, clean exit.
func CapplanServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capplan serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "oltp", "workload: olap or oltp")
	days := fs.Int("days", 14, "days of simulated history to train on before serving")
	seed := fs.Uint64("seed", 42, "simulator seed")
	technique := fs.String("technique", "sarimax", "model family: sarimax, hes, arima or tbats")
	horizon := fs.Int("horizon", 24, "forecast hours per champion")
	maxCand := fs.Int("max-candidates", 8, "candidate models per series")
	fitTimeout := fs.Duration("fit-timeout", 30*time.Second, "per-candidate fit deadline (0 = no limit); a service must not let one optimisation wedge a worker")
	failRate := fs.Float64("agent-failure-rate", 0.01, "probability an agent poll is missed")
	hours := fs.Int("hours", 0, "simulated hours to replay (0 = run until interrupted)")
	tick := fs.Duration("tick", time.Second, "wall-clock pause per simulated hour (0 = replay as fast as possible)")
	window := fs.Int("window", 24, "rolling accuracy window (observations)")
	calWindow := fs.Int("cal-window", 168, "rolling forecast-calibration window (observations) for interval coverage, PIT and residual diagnostics")
	driftOn := fs.Bool("drift", true, "run the Page\u2013Hinkley drift detector on standardized forecast residuals as a second refit trigger")
	phDelta := fs.Float64("ph-delta", 0.25, "Page\u2013Hinkley drift tolerance in standardized-residual units")
	phLambda := fs.Float64("ph-lambda", 12, "Page\u2013Hinkley alarm threshold (smaller fires faster, risks false alarms)")
	degrade := fs.Float64("degrade", 2.0, "invalidate a champion when rolling RMSE exceeds this multiple of its selection RMSE")
	maxAge := fs.Duration("max-age", 7*24*time.Hour, "simulated-time validity window per champion (the paper's one week)")
	thresholdCPU := fs.Float64("threshold-cpu", 80, "CPU % capacity threshold (0 = off)")
	thresholdMem := fs.Float64("threshold-memory", 0, "memory MB capacity threshold (0 = off)")
	thresholdIOPS := fs.Float64("threshold-iops", 0, "logical IOPS capacity threshold (0 = off)")
	within := fs.Int("within", 24, "alert when a breach is forecast within this many hours")
	pendingTicks := fs.Int("pending-ticks", 2, "consecutive breaching evaluations before an alert fires")
	resolveTicks := fs.Int("resolve-ticks", 2, "consecutive clear evaluations before a firing alert resolves")
	coldEvery := fs.Int("cold-refit-every", 24, "force every Nth refit per target to run the full cold grid search; "+
		"other refits warm-start from the stored champion and shrink the candidate grid by prior scores")
	shiftAfter := fs.Int("shift-after", 0, "inject a level shift after this many replayed hours (0 = off; drift demo)")
	shiftHours := fs.Int("shift-hours", 12, "how long the injected level shift lasts")
	shiftFactor := fs.Float64("shift-factor", 1.5, "multiplier applied to actuals during the injected shift")
	ingestOn := fs.Bool("ingest", false, "accept remote-write batches on POST "+ingest.Path+
		" and train/monitor over the ingested series instead of the built-in simulator")
	storeDir := fs.String("store-dir", "", "durable repository directory: every ingested sample and forecast snapshot is WAL-logged "+
		"and replayed on restart (requires -ingest; empty = in-memory only)")
	storeShards := fs.Int("store-shards", metricstore.DefaultShards, "repository shard count, rounded up to a power of two "+
		"(a -store-dir remembers the count it was created with)")
	retention := fs.Duration("retention", 0, "drop samples older than this horizon at WAL compaction, per series (0 = keep everything)")
	storeFsync := fs.String("store-fsync", "rotate", "WAL fsync policy: rotate (fsync on segment rotation and close; a kill loses nothing, "+
		"power loss can cost the active segment tail) or always (fsync every append)")
	ingestMaxBatch := fs.Int("ingest-max-batch", 50000, "max samples per remote-write request")
	ingestInflight := fs.Int("ingest-max-inflight", 4, "concurrent ingest requests before the collector answers 429")
	traceBuffer := fs.Int("trace-buffer", 4096, "root spans kept in memory; when full the oldest are overwritten (counted in trace_spans_dropped_total)")
	selfScrape := fs.Bool("self-scrape", true, "record the planner's own pipeline metrics (ingest rate, fit wall time, queue depth, heap) as "+
		monitor.DefaultSelfTarget+"/* forecast targets")
	selfTrain := fs.Int("self-train", 72, "hours of self-scraped history before the self targets are trained (0 = scrape but never train)")
	planOn := fs.Bool("plan", false, "run the capacity planner beside the monitor: size the fleet against each champion's horizon forecast "+
		"under the headroom policy and serve recommendations on "+planner.PlanPath)
	headroom := fs.Float64("headroom", 0.3, "fraction of per-instance capacity the planner keeps free (plan mode)")
	planHorizon := fs.Int("plan-horizon", 24, "hours of forecast the planner sizes against (plan mode)")
	planMax := fs.Int("plan-max-instances", 16, "upper bound on the planner's recommended instance count (plan mode)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tech, err := parseTechnique(*technique)
	if err != nil {
		return err
	}
	syncPolicy, err := metricstore.ParseSyncPolicy(*storeFsync)
	if err != nil {
		return err
	}
	// Flags that only govern the WAL are rejected without one, instead of
	// being silently ignored. Visit reports the flags the command line
	// actually set, which matters for -store-fsync's non-empty default.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *storeDir == "" {
		if explicit["retention"] {
			return fmt.Errorf("serve: -retention requires -store-dir (retention is enforced at WAL compaction; an in-memory repository has no WAL)")
		}
		if explicit["store-fsync"] {
			return fmt.Errorf("serve: -store-fsync requires -store-dir (the fsync policy governs the WAL; an in-memory repository has none)")
		}
	}
	if *storeDir != "" && !*ingestOn {
		return fmt.Errorf("serve: -store-dir requires -ingest (the simulated replay rebuilds its history deterministically and needs no WAL)")
	}
	if *coldEvery <= 0 {
		return fmt.Errorf("serve: -cold-refit-every must be positive (the periodic cold refit is the escape hatch that re-opens the full candidate grid; got %d)", *coldEvery)
	}
	if *of.listen == "" {
		*of.listen = "127.0.0.1:8080"
	}

	// A service logs by default; -v raises to debug. The span buffer is
	// bounded so week-long runs with tracing on don't grow without limit.
	cfg := obs.Config{Metrics: true, Trace: *of.trace, LogWriter: stdout, LogLevel: obs.LevelInfo, MaxSpans: *traceBuffer}
	if *of.verbose {
		cfg.LogLevel = obs.LevelDebug
	}
	o := obs.New(cfg)
	stopRT := obs.NewRuntimeCollector(o).Start(5 * time.Second)
	defer stopRT()

	if ctx == nil {
		ctx = context.Background()
	}
	// Parent on the caller's ctx so a cancellation from the cmd main and
	// a direct signal both stop the loop.
	ctx, cancel := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var rules []monitor.Rule
	for _, r := range []monitor.Rule{
		{Metric: "cpu", Threshold: *thresholdCPU, WithinHours: *within},
		{Metric: "memory", Threshold: *thresholdMem, WithinHours: *within},
		{Metric: "logical_iops", Threshold: *thresholdIOPS, WithinHours: *within},
	} {
		if r.Threshold > 0 {
			rules = append(rules, r)
		}
	}
	var plan *planner.Policy
	if *planOn {
		plan = &planner.Policy{Metric: "cpu", Headroom: *headroom, HorizonHours: *planHorizon, MaxInstances: *planMax}
	}
	// The pipeline's clock follows simulated time, so the paper's
	// one-week age policy works at replay speed.
	pipe, err := pipeline.New(pipeline.Config{
		Engine:      core.Options{Technique: tech, Horizon: *horizon, MaxCandidates: *maxCand, FitTimeout: *fitTimeout},
		TrainWindow: time.Duration(*days) * 24 * time.Hour,
		Stale:       core.StalePolicy{MaxAge: *maxAge, DegradeFactor: *degrade},
		Monitor: monitor.Config{
			Window:         *window,
			Rules:          rules,
			PendingTicks:   *pendingTicks,
			ResolveTicks:   *resolveTicks,
			Calibration:    monitor.CalibrationConfig{Window: *calWindow},
			Drift:          monitor.DriftConfig{Disabled: !*driftOn, Delta: *phDelta, Lambda: *phLambda},
			ColdRefitEvery: *coldEvery,
		},
		Plan:       plan,
		SelfScrape: *selfScrape,
		SelfTrain:  *selfTrain,
		Obs:        o,
	})
	if err != nil {
		return err
	}

	// The endpoint goes up before training so /healthz answers from the
	// first second; /readyz flips once the champions are in the store.
	// In ingest mode it also carries the remote-write collector, so
	// agents can ship from the first second too.
	var ready atomic.Bool
	extra := pipe.Handlers()
	var repo *metricstore.Store
	if *ingestOn {
		repo, err = metricstore.Open(metricstore.Options{
			Shards:    *storeShards,
			Dir:       *storeDir,
			Retention: *retention,
			Sync:      syncPolicy,
		})
		if err != nil {
			return err
		}
		defer repo.Close()
		pipe.Attach(repo, nil)
		repo.SetObserver(o)
		if *storeDir != "" {
			rec := repo.Recovered()
			fmt.Fprintf(stdout, "durable store %s: %d shards, replayed %d samples and %d forecast snapshots from %d WAL segments (%d torn tails)\n",
				*storeDir, repo.Shards(), rec.Samples, rec.Forecasts, rec.Segments, rec.Torn)
		}
		col, err := ingest.NewCollector(ingest.ServerConfig{
			Store:       repo,
			MaxBatch:    *ingestMaxBatch,
			MaxInFlight: *ingestInflight,
			Obs:         o,
		})
		if err != nil {
			return err
		}
		extra[ingest.Path] = col
	}
	ln, err := of.serve(stdout, o, obs.MuxOptions{Ready: ready.Load, Extra: extra})
	if err != nil {
		return err
	}
	defer ln.Close()

	// train runs the initial fleet training and flips readiness; false
	// means a shutdown canceled it.
	train := func(from, to time.Time) (bool, error) {
		res, err := pipe.Train(ctx, from, to)
		if err != nil {
			return false, err
		}
		if res.Canceled {
			fmt.Fprintf(stdout, "initial training canceled: %d trained, %d unprocessed — shutting down\n",
				res.Trained, res.Unprocessed)
			return false, nil
		}
		fmt.Fprintf(stdout, "initial training: %d trained, %d failed in %v\n",
			res.Trained, res.Failed, res.Elapsed.Round(time.Millisecond))
		ready.Store(true)
		return true, nil
	}
	more := func(hour int) bool { return ctx.Err() == nil && (*hours == 0 || hour < *hours) }

	if *ingestOn {
		// Remote-repository mode: wait until remote agents have shipped a
		// full training window, train on it, then follow the ingested
		// feed hour by hour — the two-process version of the replay.
		poll := *tick
		if poll <= 0 {
			poll = 200 * time.Millisecond
		}
		trainHours := *days * 24
		fmt.Fprintf(stdout, "ingest mode: waiting for %d hours of remote samples on POST %s\n",
			trainHours, ingest.Path)
		// Until a full window has arrived on every series the loop only
		// waits; after training it consumes every hour the remote agents
		// have completed: a bucket [simNow, simNow+1h) counts once a
		// sample at or past its end has arrived on every series.
		var trainTo, simNow time.Time
		hour := 0
		for more(hour) {
			if first, last, ok := commonWindow(repo); ok {
				if trainTo.IsZero() && pipeline.CoveredHours(first, last) >= trainHours {
					trainTo = first.Add(time.Duration(trainHours) * time.Hour)
					fmt.Fprintf(stdout, "training on ingested window %s → %s (%d series)\n",
						first.Format("2006-01-02 15:04"), trainTo.Format("2006-01-02 15:04"), len(repo.Keys()))
					if trained, err := train(first, trainTo); !trained {
						return err
					}
					fmt.Fprintln(stdout, "ready — following the ingested feed")
					simNow = trainTo
				}
				for ; !trainTo.IsZero() && more(hour) && !last.Before(simNow.Add(time.Hour)); hour++ {
					pipe.Step(ctx, simNow)
					simNow = simNow.Add(time.Hour)
				}
			}
			select {
			case <-ctx.Done():
			case <-time.After(poll):
			}
		}
		if trainTo.IsZero() {
			fmt.Fprintln(stdout, "interrupted before a full training window was ingested")
			return nil
		}
		fmt.Fprintf(stdout, "followed %d ingested hours (%s → %s)\n",
			hour, trainTo.Format("2006-01-02 15:04"), simNow.Format("2006-01-02 15:04"))
		of.dumpMetrics(stdout, o)
		return nil
	}

	fmt.Fprintf(stdout, "collecting %d days of %s history (seed %d)...\n", *days, *exp, *seed)
	ds, err := experiments.Build(experiments.Kind(strings.ToLower(*exp)), experiments.Options{
		Days: *days, Seed: *seed, AgentFailureRate: *failRate,
		MaxCandidates: *maxCand, Obs: o,
	})
	if err != nil {
		return err
	}
	// The simulated cluster's backup schedule is a shock the planner
	// understands: it sizes backup hours around it and may move jobs
	// into forecast valleys.
	pipe.Attach(ds.Store, planner.BackupInfos(ds.Cluster, dbsim.CPU))
	if trained, err := train(ds.Start, ds.End); !trained {
		return err
	}
	fmt.Fprintf(stdout, "ready — replaying the agent feed (1 simulated hour per %v tick)\n", *tick)

	// The replay agent continues the same deterministic feed the history
	// was collected with.
	ag, err := agent.New(agent.Config{
		Interval:    15 * time.Minute,
		FailureRate: *failRate,
		Seed:        *seed + 1,
		Obs:         o,
	}, ds.Cluster, ds.Store)
	if err != nil {
		return err
	}
	simNow := ds.End
	hour := 0
	for ; more(hour); hour++ {
		next := simNow.Add(time.Hour)
		if _, _, err := ag.CollectCtx(ctx, simNow, next); err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		if *shiftAfter > 0 && *shiftFactor != 1 && hour >= *shiftAfter && hour < *shiftAfter+*shiftHours {
			scaleSamples(ds.Store, simNow, next, *shiftFactor)
		}
		pipe.Step(ctx, simNow)
		simNow = next
		if *tick > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*tick):
			}
		}
	}
	fmt.Fprintf(stdout, "replayed %d simulated hours (%s → %s)\n",
		hour, ds.End.Format("2006-01-02 15:04"), simNow.Format("2006-01-02 15:04"))
	of.dumpMetrics(stdout, o)
	return nil
}

// commonWindow intersects every key's covered time range. The self
// target is skipped: its last sample always trails the feed (Step writes
// it), so it would stall the hour consumption. ok is false while the
// repository is empty.
func commonWindow(repo *metricstore.Store) (first, last time.Time, ok bool) {
	for _, k := range repo.Keys() {
		if k.Target == monitor.DefaultSelfTarget {
			continue
		}
		f, l, kok := repo.TimeRange(k)
		if !kok {
			continue
		}
		if !ok || f.After(first) {
			first = f
		}
		if !ok || l.Before(last) {
			last = l
		}
		ok = true
	}
	return first, last, ok
}

// scaleSamples multiplies every repository sample in [from, to) by
// factor — the injected level shift of the drift demo. Put overwrites
// in place, so each sample is scaled exactly once per window.
func scaleSamples(repo *metricstore.Store, from, to time.Time, factor float64) {
	for _, k := range repo.Keys() {
		for _, smp := range repo.Raw(k) {
			if smp.At.Before(from) || !smp.At.Before(to) {
				continue
			}
			smp.Value *= factor
			repo.Put(smp)
		}
	}
}
