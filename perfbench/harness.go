package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// pass is one measured run of a workload's program path, from opening an
// empty repository to closing the recovered one.
type pass struct {
	o    *obs.Observer
	dir  string
	repo *metricstore.Store
	col  *ingest.Collector
	// trace, when set, is where the pass's spans are written at the end.
	trace string
	st    *passStats

	// seriesTotal is the running time inside Store.Series, so callers can
	// subtract the reads nested in a timed region.
	seriesTotal time.Duration
	// setupEnd separates the setup and replay phases of the trace.
	setupEnd  time.Time
	scrapeBuf bytes.Buffer
}

// passStats is everything one pass measured.
type passStats struct {
	setup, recover time.Duration
	heapBytes      float64
	hourWall       dist
	fresh, wait    dist
	targetHours    int
	apeSum         float64
	apeN           int

	post, loadPost, replayPost    dist
	posts, rejected, loadSamples  int64
	replaySamples                 int64
	series, keys, putForecast     dist
	fetchAll                      time.Duration
	diskBytes                     int64
	storedSamples                 int
	replay                        metricstore.ReplayStats
	compactions, rotations        int64
	observeSelf, alerts           dist
	reasons                       map[string]int
	exhaustions, advanceFallbacks int
	fleetTrain                    time.Duration
	fleetTarget                   dist
	fleetTrained, fleetFailed     int
	refitCold, refitWarm          dist
	refitErrors                   int
	warmRequested, warmHonoured   int
	championKept                  int
	advance                       dist
	gridSkipped, warmFallbacks    int64
	plan, scrape                  dist
	metricsSeries                 int
	unaccounted                   float64
	champions                     string
	spansDropped                  int64
	spans                         spanRollup
	failedChecks                  []string
}

func newPassStats() *passStats {
	return &passStats{reasons: make(map[string]int)}
}

func (st *passStats) check(ok bool, format string, args ...any) {
	if !ok {
		st.failedChecks = append(st.failedChecks, fmt.Sprintf(format, args...))
	}
}

// refits counts every refit the adapters ran, failed ones included.
func (st *passStats) refits() int { return st.refitCold.n() + st.refitWarm.n() + st.refitErrors }

// liveMAPE is the mean absolute percentage error of stored forecasts
// against the actuals observed for them.
func (st *passStats) liveMAPE() float64 { return 100 * ratio(st.apeSum, float64(st.apeN)) }

// signature is the pass's deterministic outcome: refit counts by reason
// and mode, advances and live MAPE must repeat exactly for one seed.
func (st *passStats) signature() string {
	return fmt.Sprintf("reasons=%v cold=%d warm=%d errors=%d advances=%d fallbacks=%d mape=%x apeN=%d trained=%d",
		st.reasons, st.refitCold.n(), st.refitWarm.n(), st.refitErrors, st.advance.n(),
		st.advanceFallbacks, math.Float64bits(st.liveMAPE()), st.apeN, st.fleetTrained)
}

// passOpts says where a pass keeps its repository and, for a traced
// pass, where it writes its spans.
type passOpts struct {
	dir, trace string
}

// openPass opens an empty durable repository under opt.dir with the serve
// defaults (default shards, fsync on rotation) and mounts a collector on it.
func openPass(opt passOpts) (*pass, error) {
	dir := opt.dir
	p := &pass{
		o: obs.New(obs.Config{
			Metrics: true, Trace: opt.trace != "",
			// Serve logs at info; the lines go nowhere so stdout stays
			// the benchmark's report.
			LogWriter: io.Discard, LogLevel: obs.LevelInfo,
		}),
		dir: dir, trace: opt.trace, st: newPassStats(),
	}
	var err error
	if p.repo, err = metricstore.Open(metricstore.Options{Dir: dir, Sync: metricstore.SyncRotate}); err != nil {
		return nil, err
	}
	p.repo.SetObserver(p.o)
	if p.col, err = ingest.NewCollector(ingest.ServerConfig{Store: p.repo, MaxBatch: 50000, MaxInFlight: 4, Obs: p.o}); err != nil {
		p.repo.Close()
		return nil, err
	}
	return p, nil
}

// post delivers one encoded batch through the collector and returns when
// it answered; a non-204 answer is counted as rejected. history marks the
// batches of a history load, which the end-to-end ingest metrics cover.
func (p *pass) post(body []byte, samples int, history bool) time.Time {
	req := httptest.NewRequest(http.MethodPost, ingest.Path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	sp := p.o.StartSpan("bench.post")
	if sp != nil {
		req.Header.Set(ingest.TraceparentHeader, sp.Context().TraceParent())
	}
	rec := httptest.NewRecorder()
	began := time.Now()
	p.col.ServeHTTP(rec, req)
	done := time.Now()
	sp.End()
	p.st.post.add(done.Sub(began))
	p.st.posts++
	if rec.Code != http.StatusNoContent {
		p.st.rejected++
	} else if history {
		p.st.loadPost.add(done.Sub(began))
		p.st.loadSamples += int64(samples)
	} else {
		p.st.replayPost.add(done.Sub(began))
		p.st.replaySamples += int64(samples)
	}
	return done
}

// series is Store.Series timed as a metricstore read, under a span when
// the caller is inside a trace (the backfill read-back is not: it would
// hold 600 k spans).
func (p *pass) series(ctx context.Context, k metricstore.Key, freq timeseries.Frequency, from, to time.Time) (*timeseries.Series, error) {
	sp := obs.SpanFromContext(ctx).Child("bench.series")
	began := time.Now()
	ser, err := p.repo.Series(k, freq, from, to)
	d := time.Since(began)
	sp.End()
	p.st.series.add(d)
	p.seriesTotal += d
	return ser, err
}

// storeKeys is Store.Keys timed as a metricstore read.
func (p *pass) storeKeys() []metricstore.Key {
	began := time.Now()
	keys := p.repo.Keys()
	p.st.keys.add(time.Since(began))
	return keys
}

// layerBusy sums the time spent inside every timed layer call.
func (st *passStats) layerBusy() float64 {
	total := 0.0
	for _, d := range []*dist{&st.post, &st.series, &st.keys, &st.putForecast, &st.observeSelf,
		&st.alerts, &st.refitCold, &st.refitWarm, &st.advance, &st.plan, &st.scrape} {
		total += d.sum()
	}
	return total
}

// liveHeap is the live heap after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// hourly is one key's full hourly series and raw sample count.
type hourly struct {
	count int
	start time.Time
	vals  []float64
}

// fetchAll reads every key's hourly series over its whole range — the
// training fetch a restarted serve makes.
func fetchAll(repo *metricstore.Store) (map[metricstore.Key]hourly, error) {
	out := make(map[metricstore.Key]hourly)
	for _, k := range repo.Keys() {
		first, last, ok := repo.TimeRange(k)
		if !ok {
			continue
		}
		ser, err := repo.Series(k, timeseries.Hourly, first.Truncate(time.Hour), last.Truncate(time.Hour).Add(time.Hour))
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", k, err)
		}
		out[k] = hourly{count: repo.Count(k), start: ser.Start, vals: ser.Values}
	}
	return out, nil
}

// restart closes the repository and reopens its directory (recover_s),
// then fetches every key and checks that the recovered store holds
// exactly the samples, hourly series and forecasts the closed one held.
// The pass continues on the reopened store.
func (p *pass) restart() error {
	before, err := fetchAll(p.repo)
	if err != nil {
		return err
	}
	forecasts := len(p.repo.ForecastKeys())
	reg := p.o.Registry()
	began := time.Now()
	if err := p.repo.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	closing := time.Since(began)
	p.st.compactions = reg.CounterValue("metricstore_compactions_total")
	p.st.rotations = reg.CounterValue("metricstore_wal_rotations_total")
	p.st.diskBytes = dirBytes(p.dir)
	// Drop the closed store before the reopen builds its replacement, so
	// the two never share the heap.
	p.repo, p.col = nil, nil
	runtime.GC()
	reopenBegan := time.Now()
	if p.repo, err = metricstore.Open(metricstore.Options{Dir: p.dir, Sync: metricstore.SyncRotate}); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	p.st.recover = closing + time.Since(reopenBegan)
	p.st.replay = p.repo.Recovered()
	fetchBegan := time.Now()
	after, err := fetchAll(p.repo)
	if err != nil {
		return err
	}
	p.st.fetchAll = time.Since(fetchBegan)

	p.st.check(len(after) == len(before), "recovered %d keys, closed store held %d", len(after), len(before))
	for k, b := range before {
		p.st.storedSamples += b.count
		a, ok := after[k]
		p.st.check(ok && a.count == b.count && a.start.Equal(b.start) && sameValues(a.vals, b.vals),
			"key %s: recovered series differs from the closed store's", k)
	}
	p.st.check(len(p.repo.ForecastKeys()) == forecasts, "recovered %d forecast snapshots, closed store held %d",
		len(p.repo.ForecastKeys()), forecasts)
	return nil
}

// sameValues compares two series bit for bit, NaN gaps included.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// closeOnError closes the repository of a pass that failed before
// finish; restart leaves it nil when the reopen failed.
func (p *pass) closeOnError(err *error) {
	if *err != nil && p.repo != nil {
		p.repo.Close()
	}
}

// finish records the pass-end counters and closes the repository. The
// directory stays until the run ends: deleting a backfill's files while
// later passes are timed would put the file system's cleanup in their
// figures.
func (p *pass) finish() error {
	var err error
	if p.trace != "" {
		p.st.spansDropped = p.o.DroppedSpans()
		p.st.spans = rollupSpans(p.o.Spans(), p.setupEnd)
		var js []byte
		if js, err = p.o.TraceJSON(); err == nil {
			err = os.WriteFile(p.trace, js, 0o644)
		}
	}
	if cerr := p.repo.Close(); err == nil {
		err = cerr
	}
	return err
}

// scrape renders /metrics the way a Prometheus scrape would and counts
// its sample lines.
func (p *pass) scrape(ctx context.Context) {
	sp := p.o.StartSpanFrom(ctx, "bench.scrape")
	p.scrapeBuf.Reset()
	began := time.Now()
	err := p.o.Registry().WritePrometheus(&p.scrapeBuf)
	p.st.scrape.add(time.Since(began))
	sp.End()
	p.st.check(err == nil, "scrape: %v", err)
	n := 0
	for _, line := range strings.Split(p.scrapeBuf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	p.st.metricsSeries = n
}
