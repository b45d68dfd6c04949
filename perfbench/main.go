// Command perfbench is capplan's end-to-end benchmark. It drives the
// serve path — remote-write ingest into the durable metric repository,
// fleet training, and the hourly observe → refit/advance → alerts → plan
// → scrape step — in one process through each module's public API, and
// reports end-to-end metrics (an untraced run) or per-layer metrics (a
// traced run). See README.md for the workloads and the metric map.
//
//	go build -o perfbench . && ./perfbench --workload serve-shift --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type workloadDef struct {
	full, small spec
	pass        func(ctx context.Context, in *inputs, opt passOpts) (*passStats, error)
	// passes is the least number of passes an untraced run makes; each
	// sets up once, and setup_s is their median.
	passes int
	// serve marks the train-and-replay workloads. Each of their untraced
	// passes replays hours of its own, drawn from the run's seed and the
	// pass number, so a run averages over several futures of the same
	// trained fleet.
	serve bool
}

var workloads = map[string]workloadDef{
	// The normal serving hour: champions advance at horizon exhaustion
	// and refit only on natural degradation or drift.
	"serve-steady": {
		full:  spec{Clusters: 4, HistoryDays: 14, ReplayHours: 120, ShiftFrom: -1},
		small: spec{Clusters: 1, HistoryDays: 14, ReplayHours: 30, ShiftFrom: -1},
		pass:  servePass, passes: 2, serve: true,
	},
	// serve-steady with a persistent ×1.5 level shift from replay hour
	// 24: drift and degradation refits fire across the fleet.
	"serve-shift": {
		full:  spec{Clusters: 4, HistoryDays: 14, ReplayHours: 120, ShiftFrom: 24, ShiftFactor: 1.5},
		small: spec{Clusters: 1, HistoryDays: 14, ReplayHours: 30, ShiftFrom: 6, ShiftFactor: 1.5},
		pass:  servePass, passes: 2, serve: true,
	},
	// The write path alone: 42 days of a 600-target fleet into an empty
	// durable repository, then a restart.
	"backfill": {
		full:  spec{Clusters: 100, HistoryDays: 42, ShiftFrom: -1, Compacts: true},
		small: spec{Clusters: 5, HistoryDays: 7, ShiftFrom: -1},
		pass:  backfillPass, passes: 3,
	},
}

// maxPasses bounds an untraced run, which makes passes until
// --seconds have elapsed.
const maxPasses = 12

// moreTime says whether an untraced run that has spent elapsed, its last
// pass taking last, starts another pass: only if that pass should end
// within half a pass of the budget, so a run overshoots --seconds by at
// most about half a pass.
func moreTime(elapsed, last time.Duration, seconds float64) bool {
	return (elapsed + last/2).Seconds() < seconds
}

// replaySeed is the seed of pass k's replayed hours.
func replaySeed(seed uint64, k int) uint64 { return seed + uint64(k)*1_000_003 }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var errIncorrect = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve-steady, serve-shift or backfill")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 36, "measurement budget: untraced passes repeat until it is spent (at least the workload's minimum)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from one untraced and one traced pass")
	small := fs.Bool("small", false, "reduced input sizes")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "directory for the repositories and the trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	sp := wl.full
	if *small {
		sp = wl.small
	}
	in, err := generate(sp, *seed)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	var passes []*passStats
	runPass := func(in *inputs, trace string) error {
		i := len(passes)
		st, err := wl.pass(ctx, in, passOpts{dir: filepath.Join(dir, fmt.Sprintf("pass%d", i)), trace: trace})
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, st)
		return nil
	}
	var metrics []named
	if *trace == 1 {
		for _, trace := range []string{"", filepath.Join(*work, *name+".trace.json")} {
			if err := runPass(in, trace); err != nil {
				return err
			}
		}
		metrics = perLayer(passes[0], passes[1])
	} else {
		began := time.Now()
		var last time.Duration
		for len(passes) < wl.passes || len(passes) < maxPasses && moreTime(time.Since(began), last, *seconds) {
			passBegan := time.Now()
			pin := in
			if wl.serve && len(passes) > 0 {
				if pin, err = generate(sp, replaySeed(*seed, len(passes))); err != nil {
					return fmt.Errorf("generate inputs: %w", err)
				}
			}
			if err := runPass(pin, ""); err != nil {
				return err
			}
			last = time.Since(passBegan)
		}
		metrics = endToEnd(passes)
		for i, st := range passes {
			fmt.Fprintf(stdout, "pass %d:", i)
			for _, m := range passMetrics(st) {
				fmt.Fprintf(stdout, " %s=%.4g", m.name, m.value)
			}
			fmt.Fprintln(stdout)
		}
	}

	rep := report{Correct: true, Metrics: make(map[string]metric)}
	var failures []string
	for i, st := range passes {
		rep.Attempted += st.posts + int64(st.fleetTrained+st.fleetFailed+st.refits())
		rep.Failed += st.rejected + int64(st.fleetFailed+st.refitErrors)
		failures = append(failures, st.failedChecks...)
		// Every pass of one run trains the same champions; passes over the
		// same inputs also make the same refits by reason and mode,
		// advances and live MAPE.
		if st.champions != passes[0].champions {
			failures = append(failures, fmt.Sprintf("pass %d trained other champions than pass 0", i))
		}
		if wl.serve {
			failures = append(failures, checkServe(st)...)
		}
		if wl.serve && *trace == 0 {
			continue
		}
		if st.signature() != passes[0].signature() {
			failures = append(failures, fmt.Sprintf("pass %d outcome %s differs from pass 0's %s", i, st.signature(), passes[0].signature()))
		}
	}
	for _, m := range metrics {
		rep.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "passes %d, attempted %d, failed %d\n", len(passes), rep.Attempted, rep.Failed)
	for _, f := range failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	rep.Correct = len(failures) == 0 && rep.Failed == 0
	js, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(js))
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// checkServe holds a serve pass to the serve contract: every batch
// accepted, a finite live MAPE, and layer timings that cover the hour
// step.
func checkServe(st *passStats) []string {
	var out []string
	if st.rejected > 0 {
		out = append(out, fmt.Sprintf("%d of %d POSTs were not answered 204", st.rejected, st.posts))
	}
	if st.apeN == 0 || !allFinite([]float64{st.liveMAPE()}) {
		out = append(out, fmt.Sprintf("live MAPE %v over %d points", st.liveMAPE(), st.apeN))
	}
	if share := ratio(st.unaccounted, st.hourWall.sum()); share > 0.05 || share < -0.05 {
		out = append(out, fmt.Sprintf("layer timings leave %.1f%% of the hour-step wall time unaccounted", 100*share))
	}
	return out
}

type named struct {
	name  string
	value float64
	unit  string
}

// endToEnd reports what a user of the service sees: each metric is taken
// per pass, and the run reports the median pass, so in a run of three or
// more passes one pass slowed by the machine moves no figure.
func endToEnd(ps []*passStats) []named {
	vals := make(map[string][]float64)
	var out []named
	for i, st := range ps {
		for _, m := range passMetrics(st) {
			if i == 0 {
				out = append(out, m)
			}
			vals[m.name] = append(vals[m.name], m.value)
		}
	}
	for i := range out {
		out[i].value = median(vals[out[i].name])
	}
	return out
}

// passMetrics is one pass's end-to-end figures.
func passMetrics(st *passStats) []named {
	// A serve pass times the POSTs of its replayed hours, which spread
	// over the whole replay; its history load lasts a fraction of a
	// second, too short to hold steady. backfill times its whole load.
	posts, samples := &st.loadPost, st.loadSamples
	if st.replayPost.n() > 0 {
		posts, samples = &st.replayPost, st.replaySamples
	}
	return []named{
		{"setup_s", st.setup.Seconds(), "s"},
		{"target_hours_per_s", ratio(float64(st.targetHours), st.hourWall.sum()), "1/s"},
		{"freshness_p50_ms", 1e3 * st.fresh.q(0.5), "ms"},
		{"freshness_mean_ms", 1e3 * st.fresh.mean(), "ms"},
		{"ingest_samples_per_s", ratio(float64(samples), posts.sum()), "1/s"},
		{"heap_mb", st.heapBytes / (1 << 20), "MB"},
	}
}

// perLayer reports each module's share: timings around its public calls
// from the untraced pass a, span self times from the traced pass b.
func perLayer(a, b *passStats) []named {
	us := func(d *dist, p float64) float64 { return 1e6 * d.q(p) }
	ms := func(d *dist, p float64) float64 { return 1e3 * d.q(p) }
	refitBusy := a.refitCold.sum() + a.refitWarm.sum()
	out := []named{
		{"ingest.posts", float64(a.posts), "count"},
		{"ingest.rejected", float64(a.rejected), "count"},
		{"ingest.post_p50_us", us(&a.post, 0.5), "us"},
		{"ingest.post_p99_us", us(&a.post, 0.99), "us"},
		{"ingest.busy_s", a.post.sum(), "s"},
		{"ingest.history_samples_per_s", ratio(float64(a.loadSamples), a.loadPost.sum()), "1/s"},
		{"ingest.history_batch_p90_ms", ms(&a.loadPost, 0.9), "ms"},
		{"ingest.history_batch_p99_ms", ms(&a.loadPost, 0.99), "ms"},

		{"metricstore.series_calls", float64(a.series.n()), "count"},
		{"metricstore.series_p50_us", us(&a.series, 0.5), "us"},
		{"metricstore.series_p99_us", us(&a.series, 0.99), "us"},
		{"metricstore.series_busy_s", a.series.sum(), "s"},
		{"metricstore.keys_busy_s", a.keys.sum(), "s"},
		{"metricstore.put_forecast_busy_s", a.putForecast.sum(), "s"},
		{"metricstore.wal_bytes_per_sample", ratio(float64(a.diskBytes), float64(a.storedSamples)), "B/sample"},
		{"metricstore.wal_rotations", float64(a.rotations), "count"},
		{"metricstore.compactions", float64(a.compactions), "count"},
		{"metricstore.replay_wal_samples", float64(a.replay.Samples), "count"},
		{"metricstore.replay_segments", float64(a.replay.Segments), "count"},
		{"metricstore.replay_torn", float64(a.replay.Torn), "count"},
		{"metricstore.recover_s", a.recover.Seconds(), "s"},
		{"metricstore.fetch_all_s", a.fetchAll.Seconds(), "s"},

		{"monitor.observe_calls", float64(a.observeSelf.n()), "count"},
		{"monitor.observe_self_p50_us", us(&a.observeSelf, 0.5), "us"},
		{"monitor.observe_self_p99_us", us(&a.observeSelf, 0.99), "us"},
		{"monitor.observe_self_busy_s", a.observeSelf.sum(), "s"},
		{"monitor.alerts_p50_us", us(&a.alerts, 0.5), "us"},
		{"monitor.alerts_busy_s", a.alerts.sum(), "s"},
		{"monitor.wait_p50_ms", ms(&a.wait, 0.5), "ms"},
		{"monitor.wait_p99_ms", ms(&a.wait, 0.99), "ms"},
		{"monitor.refits_degraded", float64(a.reasons["degraded"]), "count"},
		{"monitor.refits_drift", float64(a.reasons["drift"]), "count"},
		{"monitor.refits_horizon", float64(a.reasons["horizon"]), "count"},
		{"monitor.refits_stale", float64(a.reasons["stale"]), "count"},
		{"monitor.advance_fallbacks", float64(a.advanceFallbacks), "count"},
		{"monitor.advance_success_ratio", ratio(float64(a.advance.n()), float64(a.exhaustions)), "ratio"},
		{"monitor.live_mape_pct", a.liveMAPE(), "%"},

		{"core.fleet_train_s", a.fleetTrain.Seconds(), "s"},
		{"core.fleet_target_p50_s", a.fleetTarget.q(0.5), "s"},
		{"core.fleet_failed", float64(a.fleetFailed), "count"},
		{"core.refit_cold_count", float64(a.refitCold.n()), "count"},
		{"core.refit_warm_count", float64(a.refitWarm.n()), "count"},
		{"core.refit_cold_p50_ms", ms(&a.refitCold, 0.5), "ms"},
		{"core.refit_warm_p50_ms", ms(&a.refitWarm, 0.5), "ms"},
		{"core.refit_warm_p90_ms", ms(&a.refitWarm, 0.9), "ms"},
		{"core.refit_busy_s", refitBusy, "s"},
		{"core.refit_warm_honoured_ratio", ratio(float64(a.warmHonoured), float64(a.warmRequested)), "ratio"},
		{"core.refit_champion_kept_ratio", ratio(float64(a.championKept), float64(a.refits())), "ratio"},
		{"core.advance_count", float64(a.advance.n()), "count"},
		{"core.advance_p50_us", us(&a.advance, 0.5), "us"},
		{"core.advance_p99_us", us(&a.advance, 0.99), "us"},
		{"core.grid_skipped", float64(a.gridSkipped), "count"},
		{"core.warm_fallbacks", float64(a.warmFallbacks), "count"},

		{"planner.plan_p50_us", us(&a.plan, 0.5), "us"},
		{"planner.plan_busy_s", a.plan.sum(), "s"},

		{"obs.metrics_series", float64(a.metricsSeries), "count"},
		{"obs.scrape_p50_us", us(&a.scrape, 0.5), "us"},
		{"obs.trace_spans_dropped", float64(b.spansDropped), "count"},
		{"obs.trace_overhead_pct", 100 * ratio(b.hourWall.sum()-a.hourWall.sum(), a.hourWall.sum()), "%"},

		{"serve.hour_p50_ms", ms(&a.hourWall, 0.5), "ms"},
		{"serve.hour_p90_ms", ms(&a.hourWall, 0.9), "ms"},
		{"serve.freshness_p90_ms", ms(&a.fresh, 0.9), "ms"},
		{"serve.freshness_p99_ms", ms(&a.fresh, 0.99), "ms"},
		{"serve.hour_busy_s", a.hourWall.sum(), "s"},
		{"serve.unaccounted_s", a.unaccounted, "s"},
	}
	r := b.spans
	for _, phase := range []string{"setup", "replay"} {
		at := func(name string) string { return phase + "/" + name }
		out = append(out,
			named{phase + ".core.analyse_self_s", r.self[at("analyse")], "s"},
			named{phase + ".core.precompute_self_s", r.self[at("precompute")], "s"},
			// The per-candidate fit spans run in parallel inside fit-score;
			// the stage's wall time is the figure that blocks a refit.
			named{phase + ".core.fit_score_self_s", r.total[at("fit-score")], "s"},
			named{phase + ".core.champion_self_s", r.self[at("champion")], "s"},
			named{phase + ".core.forecast_self_s", r.self[at("forecast")], "s"},
			named{phase + ".core.fits", float64(r.count[at("fit")]), "count"},
			// The collector opens ingest.receive after decoding, so the
			// decode is the rest of bench.post around it.
			named{phase + ".ingest.decode_self_s", r.self[at("bench.post")], "s"},
			named{phase + ".ingest.receive_self_s", r.self[at("ingest.receive")], "s"},
			named{phase + ".metricstore.put_batch_s", r.total[at("store.put_batch")], "s"},
		)
	}
	return out
}
